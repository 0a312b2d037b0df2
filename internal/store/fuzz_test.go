package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzStoreOpen writes arbitrary bytes as a store's log and opens it as the
// writer.  Open must not panic and must truncate the file to exactly its
// valid prefix: the header, then every whole record whose CRC matches and
// whose body header parses, up to the first that does not (a file with a
// foreign header starts over as a bare header).  Get must then answer only
// from that prefix: a hit decodes to the last valid record of its key, and
// the key of a record past the prefix (a torn or corrupt record) misses
// unless the prefix holds it too.
func FuzzStoreOpen(f *testing.F) {
	seedDir := f.TempDir()
	s, err := Open(seedDir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.Put(fmt.Sprintf("k%d", i), testPayload{N: i, S: "v"})
	}
	s.Put("k1", testPayload{N: 9, S: "overwritten"})
	s.Close()
	valid, err := os.ReadFile(filepath.Join(seedDir, segmentName))
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-2] ^= 0xff
	for _, seed := range [][]byte{
		valid, valid[:len(valid)-5], flipped, valid[:headerLen], nil,
		[]byte("QSDSTORE\x02\x00\x00\x00"), append(bytes.Clone(valid), 0xff, 0xff, 0xff, 0x3f, 0, 0, 0, 0),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, live, past := validPrefix(data)
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("after Open the log is %d bytes %q, want its %d-byte valid prefix %q", len(got), got, len(want), want)
		}
		for key, payload := range live {
			v, ok := s.Get(key)
			if !ok {
				continue // unregistered type, stale version or undecodable payload
			}
			if w, err := decodePayload(payload); err != nil || !reflect.DeepEqual(v, w) {
				t.Fatalf("Get(%q) = %#v, want the last valid record's %#v (%v)", key, v, w, err)
			}
		}
		if _, inPrefix := live[past]; past != "" && !inPrefix {
			if v, ok := s.Get(past); ok {
				t.Fatalf("Get(%q) = %#v from a record past the valid prefix", past, v)
			}
		}
	})
}

// validPrefix is the recovery oracle: the bytes a writer's Open must leave in
// the log, the payload of the last valid record of each key, and the key of
// the first record past the prefix when its body header parses.
func validPrefix(data []byte) (want []byte, live map[string][]byte, past string) {
	live = map[string][]byte{}
	if len(data) < headerLen || string(data[:len(magic)]) != magic ||
		binary.LittleEndian.Uint32(data[len(magic):headerLen]) != SchemaVersion {
		hdr := append([]byte(magic), 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(hdr[len(magic):], SchemaVersion)
		return hdr, live, ""
	}
	off := headerLen
	for len(data)-off >= recHdrLen {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n <= 0 || n > len(data)-off-recHdrLen {
			break
		}
		body := data[off+recHdrLen : off+recHdrLen+n]
		key, _, _, ok := parseBodyHeader(body)
		if !ok {
			break
		}
		if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[off+4:]) {
			past = key
			break
		}
		live[key], _ = payloadOf(body)
		off += recHdrLen + n
	}
	return data[:off], live, past
}
