package main

import (
	"sync/atomic"
	"time"

	"speedofdata/internal/store"
)

// timedStore is the result store as the engine's second cache tier, with
// every Get and Put timed and counted.  Traced runs also record each call
// as a span.
type timedStore struct {
	*store.Store
	rec *recorder

	getNs, putNs atomic.Int64
	hits, misses atomic.Int64
	puts         atomic.Int64
}

func (t *timedStore) Get(key string) (any, bool) {
	start := time.Now()
	v, ok := t.Store.Get(key)
	end := time.Now()
	t.getNs.Add(int64(end.Sub(start)))
	if ok {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
	t.rec.storeOp("store.get", kindOfKey(key), start, end)
	return v, ok
}

func (t *timedStore) Put(key string, v any) {
	start := time.Now()
	t.Store.Put(key, v)
	end := time.Now()
	t.putNs.Add(int64(end.Sub(start)))
	t.puts.Add(1)
	t.rec.storeOp("store.put", kindOfKey(key), start, end)
}

func (t *timedStore) getTime() time.Duration { return time.Duration(t.getNs.Load()) }
func (t *timedStore) putTime() time.Duration { return time.Duration(t.putNs.Load()) }
