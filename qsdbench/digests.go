package main

import (
	"context"
	_ "embed"
	"fmt"
	"io"
	"sort"
	"strings"

	"speedofdata/internal/core"
)

// digestsText holds the SHA-256 of every checked output as "label digest"
// lines: each replay-family experiment's text at paper scale and default
// parameters, and fig4 dense and bit-sliced (10M trials) at the default
// seed.  They were recorded from the commit that introduced the benchmark
// (`run.sh --print-digests` prints the current build's); an output change
// must be deliberate, and then the file is regenerated in the same change.
//
//go:embed digests.txt
var digestsText string

func loadDigests() (map[string]string, error) {
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(digestsText), "\n") {
		label, digest, ok := strings.Cut(strings.TrimSpace(line), " ")
		if !ok || len(digest) != 64 {
			return nil, fmt.Errorf("bad digest line %q", line)
		}
		out[label] = digest
	}
	return out, nil
}

// writeDigests prints this build's digests in the digests.txt format.
func writeDigests(w io.Writer) error {
	ctx := context.Background()
	b := &bench{}
	ids := replayIDs()
	reqs := []request{{ids: ids, labels: ids, params: core.DefaultRunParams()}}
	dense := core.DefaultRunParams()
	sliced := core.DefaultRunParams()
	sliced.Trials, sliced.BitSliced = bitSlicedTrials, true
	reqs = append(reqs,
		request{ids: []string{"fig4"}, labels: []string{"fig4"}, params: dense},
		request{ids: []string{"fig4"}, labels: []string{"fig4-bitsliced"}, params: sliced})
	out, err := b.runPass(ctx, newExperiments(0, nil), reqs, nil, 0)
	if err != nil {
		return err
	}
	labels := make([]string, 0, len(out.texts))
	for label := range out.texts {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		fmt.Fprintf(w, "%s %s\n", label, digestOf(out.texts[label]))
	}
	return nil
}
