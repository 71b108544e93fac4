package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"minigraph/internal/trace"
)

// peerChunks is a ChunkSource that streams another engine's chunk frames,
// optionally damaging one chunk's payload after decode.
type peerChunks struct {
	src  *Engine
	tk   TraceKey
	flip int64 // chunk index to damage (-1: none)
}

func (p peerChunks) FetchChunk(index int64) ([]byte, error) {
	frame, ok := p.src.TraceChunk(p.tk, index)
	if !ok {
		return nil, fmt.Errorf("peer holds no chunk %d", index)
	}
	_, raw, err := trace.DecodeChunk(frame)
	if err != nil {
		return nil, err
	}
	if index == p.flip {
		raw[len(raw)-1] ^= 0x40
	}
	return raw, nil
}

// TestTraceFetcherAdoptsPeerBlob: an engine whose trace fetcher hands it
// another engine's trace (its manifest plus a source streaming its chunks)
// replays it without ever capturing; a fetcher error or a chunk that fails
// its manifest CRC is rejected and falls back to capture; and a fetcher
// with no source is a silent no-op — in every case the outcome bytes are
// identical.
func TestTraceFetcherAdoptsPeerBlob(t *testing.T) {
	ctx := context.Background()
	job := baselineTestJob()
	job.Config.MaxRecords = 3000

	src := New(2).WithTraceChunkRecords(256)
	ref, err := src.Simulate(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeOutcome(ref)
	if err != nil {
		t.Fatal(err)
	}
	tk := job.Key().TraceKey()
	manifest, ok := src.TraceManifest(tk)
	if !ok {
		t.Fatal("source engine cannot serve its own trace manifest")
	}
	m, err := trace.DecodeManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Chunks) < 2 {
		t.Fatalf("trace split into %d chunks; the test geometry should give several", len(m.Chunks))
	}
	if _, ok := src.TraceManifest(TraceKey{}); ok {
		t.Fatal("manifest served for a trace that was never captured")
	}
	peerTrace := func(flip int64) *trace.Trace {
		tr, err := trace.FromManifest(m, peerChunks{src: src, tk: tk, flip: flip})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	check := func(name string, eng *Engine, wantCaptures, wantHits, wantRejects int64) {
		t.Helper()
		got, err := eng.Simulate(ctx, job)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if gotBytes, err := EncodeOutcome(got); err != nil || !bytes.Equal(gotBytes, want) {
			t.Errorf("%s: outcome differs from the source engine's (%v)", name, err)
		}
		st := eng.Stats()
		if st.TraceCaptures != wantCaptures || st.TracePeerHits != wantHits || st.TracePeerRejects != wantRejects {
			t.Errorf("%s: captures/peer hits/rejects %d/%d/%d, want %d/%d/%d",
				name, st.TraceCaptures, st.TracePeerHits, st.TracePeerRejects, wantCaptures, wantHits, wantRejects)
		}
	}

	var fetched atomic.Int64
	check("adopted", New(2).WithTraceFetcher(func(_ context.Context, key TraceKey) (*trace.Trace, error) {
		fetched.Add(1)
		if key != tk {
			return nil, fmt.Errorf("asked for unexpected key %+v", key)
		}
		return peerTrace(-1), nil
	}), 0, 1, 0)
	if n := fetched.Load(); n != 1 {
		t.Errorf("fetcher called %d times, want 1", n)
	}

	// Damage degrades to a re-capture, never to a wrong replay: a fetch
	// error, or a trace whose source serves a chunk that fails its
	// manifest CRC.
	check("fetch error", New(2).WithTraceFetcher(func(context.Context, TraceKey) (*trace.Trace, error) {
		return nil, errors.New("peer transfer failed")
	}), 1, 0, 1)
	check("flipped chunk", New(2).WithTraceFetcher(func(context.Context, TraceKey) (*trace.Trace, error) {
		return peerTrace(int64(len(m.Chunks) - 1)), nil
	}), 1, 0, 1)

	// (nil, nil) means "no source": not a hit, not a reject, plain capture.
	check("no source", New(2).WithTraceFetcher(func(context.Context, TraceKey) (*trace.Trace, error) {
		return nil, nil
	}), 1, 0, 0)
}
