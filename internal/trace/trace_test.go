package trace_test

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"minigraph"
	"minigraph/internal/asm"
	"minigraph/internal/core"
	"minigraph/internal/emu"
	"minigraph/internal/isa"
	"minigraph/internal/trace"
	"minigraph/internal/uarch"
	"minigraph/internal/workload"
)

// rewritten builds the mini-graph variant of a workload benchmark the same
// way the engine does, so the trace covers handle records too. The
// templates come back alongside the table because an MGT memoizes
// schedules lazily and is therefore per-pipeline state: concurrent
// simulations each build their own from the shared immutable templates.
func rewritten(t testing.TB, bench string) (*isa.Program, *core.MGT, []*core.Template) {
	t.Helper()
	wl, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	prog := wl.Build(workload.InputTrain)
	prof, err := minigraph.ProfileOf(prog, minigraph.ProfileLimit)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := minigraph.Extract(prog, prof, minigraph.DefaultPolicy(), 512, minigraph.DefaultExecParams())
	if err != nil {
		t.Fatal(err)
	}
	return rw.Prog, rw.MGT, rw.Selection.Templates
}

// TestReaderMatchesStream drives the live stream and a trace reader in
// lockstep — including rewinds deeper than any live window would need —
// and demands identical records.
func TestReaderMatchesStream(t *testing.T) {
	prog, mgt, _ := rewritten(t, "sha")
	const limit = 20_000
	tr, err := trace.Capture(context.Background(), prog, mgt, limit)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != limit {
		t.Fatalf("trace length %d, want %d", tr.Len(), limit)
	}

	s := emu.NewStream(emu.NewMachine(prog, mgt), 4096, limit)
	r := trace.NewReader(tr, prog, limit)
	step := 0
	for {
		sr, sok := s.Next()
		rr, rok := r.Next()
		if sok != rok {
			t.Fatalf("step %d: stream ok=%v reader ok=%v", step, sok, rok)
		}
		if !sok {
			break
		}
		if !reflect.DeepEqual(*sr, *rr) {
			t.Fatalf("step %d: record mismatch\nstream: %+v\nreplay: %+v", step, *sr, *rr)
		}
		step++
		// Periodic rewinds exercise the squash path; every 4096 records jump
		// back a stride the live window can still cover so both sides can
		// replay it.
		if step%4096 == 0 {
			seq := sr.Seq - 100
			s.Rewind(seq)
			r.Rewind(seq)
		}
	}
	if (s.Err() == nil) != (r.Err() == nil) {
		t.Fatalf("err mismatch: stream %v reader %v", s.Err(), r.Err())
	}
	if !s.Exhausted() || !r.Exhausted() {
		t.Fatal("both sources should be exhausted")
	}
}

// TestReaderDeepRewind: a replay cursor rewinds to record zero no matter
// how far it has advanced — there is no retention window to fall out of.
func TestReaderDeepRewind(t *testing.T) {
	prog, mgt, _ := rewritten(t, "sha")
	tr, err := trace.Capture(context.Background(), prog, mgt, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	r := trace.NewReader(tr, prog, 0)
	var first emu.Record
	for i := 0; i < 10_000; i++ {
		rec, ok := r.Next()
		if !ok {
			t.Fatalf("exhausted at %d", i)
		}
		if i == 0 {
			first = *rec
		}
	}
	r.Rewind(0)
	rec, ok := r.Next()
	if !ok || !reflect.DeepEqual(*rec, first) {
		t.Fatalf("deep rewind did not re-serve record 0 (ok=%v)", ok)
	}
}

// TestPipelineReplayIdentical is the golden-invariance rule at the unit
// level: one benchmark simulated via the live stream and via trace replay
// must produce identical statistics on multiple machine configurations
// sharing the one capture.
func TestPipelineReplayIdentical(t *testing.T) {
	prog, mgt, templates := rewritten(t, "adpcm.enc")
	tr, err := trace.Capture(context.Background(), prog, mgt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Halted() {
		t.Fatal("benchmark did not halt during capture")
	}
	// Three arms sharing the one capture: the paper machine, a DRAM-latency
	// variant, and a collapsing-AP variant (whose MGT schedules differ —
	// only the *functional* stream is shared, so each arm builds its own
	// table under its own exec parameters).
	configs := []uarch.Config{uarch.MiniGraph(true), uarch.MiniGraph(true), uarch.MiniGraph(true)}
	configs[1].MemLatency = 140
	configs[2].Collapse = true
	for _, cfg := range configs {
		params := core.ExecParams{LoadLat: cfg.LoadLat, Collapse: cfg.Collapse, UseAP: cfg.APs > 0}
		live, err := uarch.New(cfg, prog, core.NewMGT(templates, params)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rd := trace.NewReader(tr, prog, cfg.MaxRecords)
		replay, err := uarch.NewWithSource(cfg, core.NewMGT(templates, params), rd).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live, replay) {
			t.Errorf("%s: live and replay results diverge (Collapse=%v MemLatency=%d)", cfg.Name, cfg.Collapse, cfg.MemLatency)
		}
	}
}

// TestConcurrentReaders replays one shared trace through 8 concurrent
// pipelines (each with a private cursor) under the race detector and
// checks every result is identical to a sequential run.
func TestConcurrentReaders(t *testing.T) {
	prog, mgt, templates := rewritten(t, "sha")
	const limit = 60_000
	tr, err := trace.Capture(context.Background(), prog, mgt, limit)
	if err != nil {
		t.Fatal(err)
	}
	cfg := uarch.MiniGraph(true)
	cfg.MaxRecords = limit
	want, err := uarch.NewWithSource(cfg, mgt, trace.NewReader(tr, prog, limit)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	results := make([]*uarch.Result, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			own := core.NewMGT(templates, core.DefaultExecParams())
			results[i], errs[i] = uarch.NewWithSource(cfg, own, trace.NewReader(tr, prog, limit)).Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("reader %d diverged from the sequential result", i)
		}
	}
}

// TestCaptureLimitSemantics pins the cut-off contract shared with
// emu.Stream: the emulator is never stepped once limit records exist.
func TestCaptureLimitSemantics(t *testing.T) {
	prog, mgt, _ := rewritten(t, "sha")
	tr, err := trace.Capture(context.Background(), prog, mgt, 500)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 500 || tr.Halted() || tr.Err() != nil {
		t.Fatalf("limit capture: len=%d halted=%v err=%v", tr.Len(), tr.Halted(), tr.Err())
	}
	// A reader bounded at or below the trace length never observes a
	// fault, even on a truncated trace.
	r := trace.NewReader(tr, prog, 500)
	if r.Err() != nil {
		t.Fatalf("reader err %v, want nil", r.Err())
	}
}

// TestCaptureHoldsOnlyItsRows: whatever the size hint — none, exact, or
// far too large — a finished resident capture of a run to halt holds
// exactly its rows, so the engine's trace budget (which charges
// ResidentBytes) sees real memory.
func TestCaptureHoldsOnlyItsRows(t *testing.T) {
	prog := asm.MustAssemble("seed", fuzzSeedSrc)
	ref, err := trace.Capture(context.Background(), prog, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, hint := range []int64{0, ref.Len(), 10 * ref.Len()} {
		tr, err := trace.CaptureWith(context.Background(), prog, nil, 0, trace.CaptureOptions{Hint: hint})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tr.ResidentBytes(), tr.Len()*trace.RecordBytes; got != want {
			t.Errorf("hint %d: %d records hold %d bytes, want %d", hint, tr.Len(), got, want)
		}
	}
}

// faultSrc jumps to a PC far outside the program: the live stream and a
// captured trace must surface the identical architectural fault.
const faultSrc = `
        .text
main:   li    r9, 12345
        jmp   (r9)
        halt
`

func TestCaptureFaultParity(t *testing.T) {
	prog := asm.MustAssemble("fault", faultSrc)

	s := emu.NewStream(emu.NewMachine(prog, nil), 16, 0)
	var streamRecs int
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		streamRecs++
	}
	if s.Err() == nil {
		t.Fatal("live stream did not fault")
	}

	tr, err := trace.Capture(context.Background(), prog, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != int64(streamRecs) {
		t.Fatalf("trace len %d, stream served %d", tr.Len(), streamRecs)
	}
	r := trace.NewReader(tr, prog, 0)
	var replayRecs int
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		replayRecs++
	}
	if replayRecs != streamRecs {
		t.Fatalf("replay served %d records, stream %d", replayRecs, streamRecs)
	}
	if r.Err() == nil || r.Err().Error() != s.Err().Error() {
		t.Fatalf("fault mismatch: stream %q replay %q", s.Err(), r.Err())
	}

	// A reader bounded before the fault never sees it, exactly like a live
	// stream bounded before the fault.
	bounded := trace.NewReader(tr, prog, tr.Len())
	if bounded.Err() != nil {
		t.Fatalf("bounded reader err %v, want nil", bounded.Err())
	}
}

// chunkSource serves decoded chunk payloads by index: the receiving side
// of a manifest+chunk transfer.
type chunkSource [][]byte

func (c chunkSource) FetchChunk(index int64) ([]byte, error) { return c[index], nil }

// encodeFrames renders tr in its wire form: the manifest encoding and one
// chunk frame per sealed chunk.
func encodeFrames(t *testing.T, tr *trace.Trace, compress bool) ([]byte, [][]byte) {
	t.Helper()
	frames := make([][]byte, tr.NumChunks())
	for ci := range frames {
		raw, err := tr.ChunkPayload(int64(ci))
		if err != nil {
			t.Fatal(err)
		}
		frames[ci] = trace.EncodeChunk(int64(ci), raw, compress)
	}
	return trace.EncodeManifest(tr.Manifest()), frames
}

// TestCodecRoundTrip: encoding the manifest and every chunk, decoding
// them, and rebuilding the trace with FromManifest is byte-stable (the
// rebuilt trace re-encodes to the same manifest and chunk frames, raw or
// compressed) and the rebuilt trace replays identically.
func TestCodecRoundTrip(t *testing.T) {
	prog, mgt, _ := rewritten(t, "adpcm.enc")
	tr, err := trace.CaptureWith(context.Background(), prog, mgt, 30_000, trace.CaptureOptions{ChunkRecords: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumChunks() < 4 {
		t.Fatalf("capture split into %d chunks; the test geometry should give several", tr.NumChunks())
	}
	for _, compress := range []bool{false, true} {
		manifest, frames := encodeFrames(t, tr, compress)
		m, err := trace.DecodeManifest(manifest)
		if err != nil {
			t.Fatal(err)
		}
		src := make(chunkSource, len(frames))
		for ci, f := range frames {
			idx, raw, err := trace.DecodeChunk(f)
			if err != nil || idx != int64(ci) {
				t.Fatalf("chunk %d: decode index %d, err %v", ci, idx, err)
			}
			src[ci] = raw
		}
		back, err := trace.FromManifest(m, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := back.Materialize(); err != nil {
			t.Fatal(err)
		}
		reManifest, reFrames := encodeFrames(t, back, compress)
		if !bytes.Equal(reManifest, manifest) || !reflect.DeepEqual(reFrames, frames) {
			t.Fatalf("compress=%v: encode→decode→encode not byte-stable", compress)
		}
		if back.Len() != tr.Len() || back.Halted() != tr.Halted() {
			t.Fatalf("metadata changed: len %d→%d halted %v→%v", tr.Len(), back.Len(), tr.Halted(), back.Halted())
		}
		cfg := uarch.MiniGraph(true)
		cfg.MaxRecords = 30_000
		a, err := uarch.NewWithSource(cfg, mgt, trace.NewReader(tr, prog, cfg.MaxRecords)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := uarch.NewWithSource(cfg, mgt, trace.NewReader(back, prog, cfg.MaxRecords)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("compress=%v: rebuilt trace replays differently", compress)
		}
	}
}

// damaged returns every kind of damage a wire frame can suffer: each must
// read as a decode error, never as a silently wrong manifest or chunk.
func damaged(frame []byte) map[string][]byte {
	flipped := append([]byte{}, frame...)
	flipped[len(flipped)-1] ^= 0x40 // a payload/table byte, not the header
	return map[string][]byte{
		"empty":       {},
		"magic":       append([]byte{'X'}, frame[1:]...),
		"version":     append(append([]byte{}, frame[:4]...), append([]byte{0xff, 0xff}, frame[6:]...)...),
		"truncated":   frame[:len(frame)-1],
		"trailing":    append(append([]byte{}, frame...), 0),
		"payload-bit": flipped,
	}
}

// TestDecodeRejectsDamage: DecodeManifest and DecodeChunk reject empty
// input, bad magic, a bad version, truncation, a trailing byte and a
// flipped payload bit.
func TestDecodeRejectsDamage(t *testing.T) {
	prog, mgt, _ := rewritten(t, "sha")
	tr, err := trace.CaptureWith(context.Background(), prog, mgt, 1000, trace.CaptureOptions{ChunkRecords: 256})
	if err != nil {
		t.Fatal(err)
	}
	manifest, frames := encodeFrames(t, tr, false)
	for name, data := range damaged(manifest) {
		if _, err := trace.DecodeManifest(data); err == nil {
			t.Errorf("manifest %s: decode accepted damaged frame", name)
		}
	}
	_, compressed := encodeFrames(t, tr, true)
	for kind, frame := range map[string][]byte{"raw": frames[0], "compressed": compressed[0]} {
		for name, data := range damaged(frame) {
			if _, _, err := trace.DecodeChunk(data); err == nil {
				t.Errorf("%s chunk %s: decode accepted damaged frame", kind, name)
			}
		}
	}
}
