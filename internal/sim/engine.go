package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"minigraph/internal/core"
	"minigraph/internal/emu"
	"minigraph/internal/isa"
	"minigraph/internal/program"
	"minigraph/internal/rewrite"
	"minigraph/internal/store"
	"minigraph/internal/trace"
	"minigraph/internal/uarch"
	"minigraph/internal/workload"
)

// ProfileLimit bounds the dynamic instructions profiled per preparation
// (the experiment harness's historical limit). Profiling outside the
// engine should use the same cap so identical programs select identical
// mini-graphs regardless of which path prepared them.
const ProfileLimit = 4_000_000

// Engine is a concurrent, memoizing simulation job engine. Submissions
// with equal canonical keys are deduplicated single-flight: the first
// submitter runs the job, every concurrent or later submitter receives the
// cached result. Actual compute runs on a worker pool of bounded size;
// waiting on a duplicate never occupies a worker slot.
//
// Simulations are trace-driven: the functional emulation of a program is
// captured once per TraceKey (preparation + extraction axes + record
// limit) into an immutable structure-of-arrays trace, and every machine
// configuration swept over that binary replays the shared trace through
// its own zero-allocation cursor — concurrently, with no locking. With a
// persistent store attached, traces round-trip through disk as a manifest
// plus chunk entries, so cold processes replay without ever emulating.
// Replay is the engine's only delivery path; SimulateLive is the
// live-emulation reference it is checked against.
//
// An Engine is safe for concurrent use and is meant to be shared across
// experiments so cross-figure common work (benchmark preparations, the
// shared baseline simulation, captured traces) runs exactly once per
// process.
type Engine struct {
	workers int
	sem     chan struct{}
	store   *store.Store

	// traceFetch, when set, is consulted for a trace that is neither in
	// memory nor in the store before falling back to capturing (see
	// WithTraceFetcher). The serving tier uses it to move traces between
	// workers when membership changes re-route an arm.
	traceFetch func(ctx context.Context, key TraceKey) (*trace.Trace, error)

	// Chunked-trace policy (see WithTraceChunkRecords and friends).
	// chunkRecords overrides the capture chunk geometry (0: trace package
	// default); chunkWindow bounds each replay reader's resident spilled
	// chunks (0: unbounded — traces stay fully resident in memory, the
	// pre-chunking behavior); traceCompress DEFLATE-compresses chunk
	// payloads persisted to the store.
	chunkRecords  int64
	chunkWindow   int
	traceCompress bool

	mu     sync.Mutex
	preps  map[PrepareKey]*call[*Prepared]
	sims   map[SimKey]*call[*Outcome]
	traces map[TraceKey]*call[*capturedTrace]

	// Captured traces are the one memoization whose values are large (a
	// full-run capture is tens of MB), so unlike outcomes they are LRU-
	// bounded: traceSizes/traceOrder track completed entries and evict the
	// least recently touched beyond traceMaxBytes. Evicting only drops the
	// map reference — in-flight replays hold the immutable trace directly,
	// and a re-request recaptures (or reloads from the store).
	traceMaxBytes int64
	traceResident int64
	traceSizes    map[TraceKey]int64
	traceOrder    []TraceKey // least recently touched first

	prepRuns    atomic.Int64
	prepHits    atomic.Int64
	simRuns     atomic.Int64
	simHits     atomic.Int64
	storeHits   atomic.Int64
	storeMisses atomic.Int64
	storePuts   atomic.Int64

	traceRuns        atomic.Int64
	traceCaptures    atomic.Int64
	traceHits        atomic.Int64
	traceStoreHits   atomic.Int64
	traceBytes       atomic.Int64
	tracePeerHits    atomic.Int64
	tracePeerRejects atomic.Int64

	chunkFaults     atomic.Int64
	chunkEvictions  atomic.Int64
	chunkWindowPeak atomic.Int64 // max over any single reader window
	chunkRecaptures atomic.Int64

	// Front-end counters summed over pipeline simulations executed
	// in-process (store and cache hits do not re-count).
	feCondBranches atomic.Int64
	feCondMispreds atomic.Int64
	feMispredicts  atomic.Int64
	fePrefIssued   atomic.Int64
	fePrefUseful   atomic.Int64
	fePrefLate     atomic.Int64
}

// capturedTrace is one memoized capture: the rewritten binary (or the
// prepared original for baseline jobs), the selection and templates that
// produced it, and the recorded dynamic stream. Everything here is
// immutable after capture and shared by every replaying arm; per-arm state
// (the MGT with its config-specific schedules, the replay cursor) is built
// fresh per simulation.
type capturedTrace struct {
	prog      *isa.Program
	templates []*core.Template
	sel       *core.Selection
	trace     *trace.Trace
}

// Stats is a point-in-time snapshot of the engine's cache counters. Runs
// count jobs computed in-process (cache misses that entered a compute
// function); Hits count submissions served from the in-memory cache
// (including waits on an in-flight duplicate). When a persistent store is
// attached, StoreHits of those SimRuns were answered from disk without
// touching the pipeline — SimRuns−StoreHits is the number of timing
// simulations actually executed.
type Stats struct {
	PrepareRuns int64 `json:"prepare_runs"`
	PrepareHits int64 `json:"prepare_hits"`
	SimRuns     int64 `json:"sim_runs"`
	SimHits     int64 `json:"sim_hits"`
	StoreHits   int64 `json:"store_hits,omitempty"`
	StoreMisses int64 `json:"store_misses,omitempty"`
	StorePuts   int64 `json:"store_puts,omitempty"`

	// Trace-cache counters. TraceCaptures counts functional emulations
	// actually executed in-process; TraceReplayHits counts simulations that
	// replayed a trace another arm had already produced (in-memory hit);
	// TraceStoreHits counts traces loaded from the persistent store instead
	// of emulating. TraceBytes is the cumulative size of captured/loaded
	// trace data. In a multi-arm sweep over one binary, TraceCaptures stays
	// at one while TraceReplayHits grows with the arm count — per-prepare
	// emulation happens exactly once per process.
	TraceCaptures   int64 `json:"trace_captures"`
	TraceReplayHits int64 `json:"trace_replay_hits"`
	TraceStoreHits  int64 `json:"trace_store_hits,omitempty"`
	TraceBytes      int64 `json:"trace_bytes,omitempty"`

	// Chunk-residency counters. TraceChunkFaults counts spilled chunks
	// faulted in through reader windows (and TraceChunkEvictions the
	// window evictions that made room); TraceChunkWindowPeakBytes is the
	// largest resident footprint any single reader window reached;
	// TraceResidentBytes is the chunk buffer capacity currently held by
	// the in-memory trace cache (what the LRU budget charges);
	// TraceChunkRecaptures counts replays that lost a chunk mid-flight
	// (store eviction, vanished peer) and recovered by re-capturing.
	TraceChunkFaults          int64 `json:"trace_chunk_faults,omitempty"`
	TraceChunkEvictions       int64 `json:"trace_chunk_evictions,omitempty"`
	TraceChunkWindowPeakBytes int64 `json:"trace_chunk_window_peak_bytes,omitempty"`
	TraceResidentBytes        int64 `json:"trace_resident_bytes,omitempty"`
	TraceChunkRecaptures      int64 `json:"trace_chunk_recaptures,omitempty"`

	// Peer-transfer counters (see WithTraceFetcher). TracePeerHits counts
	// traces adopted from a peer instead of being captured or re-captured;
	// TracePeerRejects counts fetch attempts that failed or returned a
	// trace whose chunks failed verification, and fell back to capturing.
	TracePeerHits    int64 `json:"trace_peer_hits,omitempty"`
	TracePeerRejects int64 `json:"trace_peer_rejects,omitempty"`

	// Front-end counters, summed over the uarch.Results of pipeline
	// simulations executed in-process (store hits and memoized results do
	// not re-count). Prefetch counters stay zero until a job enables a
	// prefetcher.
	CondBranches    int64 `json:"cond_branches"`
	CondMispredicts int64 `json:"cond_mispredicts"`
	Mispredicts     int64 `json:"branch_mispredicts"`
	PrefetchIssued  int64 `json:"prefetch_issued"`
	PrefetchUseful  int64 `json:"prefetch_useful"`
	PrefetchLate    int64 `json:"prefetch_late"`
}

// PipelineSims is the number of timing simulations the engine actually
// executed (in-process cache misses not answered by the persistent store).
func (s Stats) PipelineSims() int64 { return s.SimRuns - s.StoreHits }

// New builds an engine with the given worker-pool size (0 = GOMAXPROCS).
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers:       workers,
		sem:           make(chan struct{}, workers),
		preps:         make(map[PrepareKey]*call[*Prepared]),
		sims:          make(map[SimKey]*call[*Outcome]),
		traces:        make(map[TraceKey]*call[*capturedTrace]),
		traceMaxBytes: DefaultTraceCacheBytes,
		traceSizes:    make(map[TraceKey]int64),
	}
}

// DefaultTraceCacheBytes bounds the in-memory captured-trace cache
// (~10 benchSubset-sized full-run traces). A long-lived service sweeping
// many distinct binaries re-captures (or store-loads) cold traces instead
// of growing without bound.
const DefaultTraceCacheBytes int64 = 256 << 20

// WithTraceCacheBytes overrides the in-memory trace cache budget
// (<= 0 restores the default). Set before submitting jobs; e is returned
// for chaining.
func (e *Engine) WithTraceCacheBytes(n int64) *Engine {
	if n <= 0 {
		n = DefaultTraceCacheBytes
	}
	e.traceMaxBytes = n
	return e
}

// WithTraceChunkRecords overrides the records-per-chunk geometry of
// captures (rounded up to a power of two; <= 0 restores the trace
// package default of ~64Ki rows). Geometry is storage layout only — it
// can never change a replayed record — and exists mainly so tests can
// cross many chunk boundaries cheaply. Set before submitting jobs; e is
// returned for chaining.
func (e *Engine) WithTraceChunkRecords(n int64) *Engine {
	if n < 0 {
		n = 0
	}
	e.chunkRecords = n
	return e
}

// WithTraceChunkWindow bounds each replay reader's resident spilled
// chunks to n (<= 0: unbounded, the fully resident pre-chunking
// behavior). With a store attached and a bounded window, captures spill
// sealed chunks straight to the store and replays fault them back in on
// demand, so a sweep over a trace far larger than RAM runs in
// n × chunk bytes per reader. Reports are byte-identical either way.
// Set before submitting jobs; e is returned for chaining.
func (e *Engine) WithTraceChunkWindow(n int) *Engine {
	if n < 0 {
		n = 0
	}
	e.chunkWindow = n
	return e
}

// WithTraceCompression toggles DEFLATE compression of chunk payloads
// persisted to the store (off by default). The chunk CRC is always of the
// raw rows, so compressed and raw entries verify identically. Set before
// submitting jobs; e is returned for chaining.
func (e *Engine) WithTraceCompression(on bool) *Engine {
	e.traceCompress = on
	return e
}

// noteWindow folds one finished reader's chunk-window activity into the
// engine counters.
func (e *Engine) noteWindow(ws trace.WindowStats) {
	if ws == (trace.WindowStats{}) {
		return
	}
	e.chunkFaults.Add(ws.Faults)
	e.chunkEvictions.Add(ws.Evictions)
	for {
		cur := e.chunkWindowPeak.Load()
		if ws.PeakBytes <= cur || e.chunkWindowPeak.CompareAndSwap(cur, ws.PeakBytes) {
			break
		}
	}
}

// touchTrace marks key's trace as recently used and evicts the least
// recently touched completed traces beyond the byte budget. The entry
// just touched is never evicted, so a working set larger than the budget
// degrades to capture-per-sweep rather than thrashing mid-sweep arms.
func (e *Engine) touchTrace(key TraceKey, size int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.traces[key]; !ok {
		return // evicted or canceled while we were completing
	}
	if _, tracked := e.traceSizes[key]; tracked {
		for i, k := range e.traceOrder {
			if k == key {
				e.traceOrder = append(append(e.traceOrder[:i:i], e.traceOrder[i+1:]...), key)
				break
			}
		}
	} else {
		e.traceSizes[key] = size
		e.traceResident += size
		e.traceOrder = append(e.traceOrder, key)
	}
	for e.traceResident > e.traceMaxBytes && len(e.traceOrder) > 1 {
		victim := e.traceOrder[0]
		e.traceOrder = e.traceOrder[1:]
		e.traceResident -= e.traceSizes[victim]
		delete(e.traceSizes, victim)
		delete(e.traces, victim)
	}
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// WithStore attaches a persistent result store: Simulate consults it
// before computing and writes through after. Attach before submitting jobs
// (the field is not synchronized); e is returned for chaining. A nil store
// detaches.
func (e *Engine) WithStore(s *store.Store) *Engine {
	e.store = s
	return e
}

// Store returns the attached persistent store (nil if none).
func (e *Engine) Store() *store.Store { return e.store }

// WithTraceFetcher installs a hook consulted when a simulation needs a
// trace that is neither memoized in memory nor present in the store: f
// returns the trace or an error. A (nil, nil) return means "no source
// available" and is not counted. The engine adopts the returned trace
// after materializing it — every chunk not already resident is faulted
// through the trace's source and checked against its manifest CRC — so a
// fetch error or a damaged chunk counts as a reject and the engine falls
// back to capturing, never to a wrong replay. An adopted trace is written
// through to the store. The serving tier uses this to stream traces from
// peer workers when membership changes re-route an arm. Set before
// submitting jobs (the field is not synchronized); e is returned for
// chaining.
func (e *Engine) WithTraceFetcher(f func(ctx context.Context, key TraceKey) (*trace.Trace, error)) *Engine {
	e.traceFetch = f
	return e
}

// memoTrace returns the completed in-memory capture for key, if any. A
// capture in flight does not count, so a peer asking mid-capture simply
// falls back to its own sources.
func (e *Engine) memoTrace(key TraceKey) (*trace.Trace, bool) {
	e.mu.Lock()
	c, ok := e.traces[key]
	e.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-c.done:
		if c.err == nil && c.val != nil && c.val.trace != nil {
			return c.val.trace, true
		}
	default: // still capturing
	}
	return nil, false
}

// storedTrace opens key's trace from the attached store: manifest entry
// under the trace key, chunk payloads faulted through chunk entries.
// Nothing is verified beyond the manifest decode — callers stream chunks
// through the returned trace (ChunkPayload, Materialize), each of which
// CRC-checks what it touches.
func (e *Engine) storedTrace(key TraceKey) (*trace.Trace, bool) {
	if e.store == nil {
		return nil, false
	}
	kb, err := EncodeTraceKey(key)
	if err != nil {
		return nil, false
	}
	data, ok := e.store.Get(kb)
	if !ok {
		return nil, false
	}
	m, err := trace.DecodeManifest(data)
	if err != nil {
		return nil, false
	}
	tr, err := trace.FromManifest(m, &storeChunkIO{e: e, tk: key})
	if err != nil {
		return nil, false
	}
	return tr, true
}

// TraceManifest returns the encoded chunk manifest (trace manifest codec)
// for key from the in-memory trace cache or the attached store. Peers
// fetch the manifest first, then stream the chunks it names.
func (e *Engine) TraceManifest(key TraceKey) ([]byte, bool) {
	if tr, ok := e.memoTrace(key); ok {
		return trace.EncodeManifest(tr.Manifest()), true
	}
	if e.store == nil {
		return nil, false
	}
	kb, err := EncodeTraceKey(key)
	if err != nil {
		return nil, false
	}
	data, ok := e.store.Get(kb)
	if !ok {
		return nil, false
	}
	// Validate before serving: a damaged entry must read as a miss here
	// just as it would on replay.
	if _, err := trace.DecodeManifest(data); err != nil {
		return nil, false
	}
	return data, true
}

// TraceChunk returns the encoded frame (trace chunk codec) of chunk
// `index` of key's trace, from the in-memory trace cache or the attached
// store. A missing or damaged chunk is a miss for that chunk only — the
// peer protocol rejects and re-sources chunks individually.
func (e *Engine) TraceChunk(key TraceKey, index int64) ([]byte, bool) {
	if tr, ok := e.memoTrace(key); ok && index >= 0 && index < tr.NumChunks() {
		if raw, err := tr.ChunkPayload(index); err == nil {
			return trace.EncodeChunk(index, raw, e.traceCompress), true
		}
	}
	if e.store == nil {
		return nil, false
	}
	kb, err := EncodeTraceChunkKey(key, index)
	if err != nil {
		return nil, false
	}
	data, ok := e.store.Get(kb)
	if !ok {
		return nil, false
	}
	if idx, _, err := trace.DecodeChunk(data); err != nil || idx != index {
		return nil, false
	}
	return data, true
}

// storeChunkIO moves one trace's chunks between a Trace and the engine's
// store: it is the ChunkSink captures spill sealed chunks through and the
// ChunkSource replays fault them back in from. Safe for concurrent use
// (the store is; the struct is immutable).
type storeChunkIO struct {
	e  *Engine
	tk TraceKey
}

func (s *storeChunkIO) SealChunk(index, rows int64, data []byte, crc uint32) error {
	kb, err := EncodeTraceChunkKey(s.tk, index)
	if err != nil {
		return err
	}
	if err := s.e.store.Put(kb, trace.EncodeChunk(index, data, s.e.traceCompress)); err != nil {
		return err
	}
	s.e.storePuts.Add(1)
	return nil
}

func (s *storeChunkIO) FetchChunk(index int64) ([]byte, error) {
	kb, err := EncodeTraceChunkKey(s.tk, index)
	if err != nil {
		return nil, err
	}
	data, ok := s.e.store.Get(kb)
	if !ok {
		return nil, fmt.Errorf("sim: trace chunk %d not in store", index)
	}
	idx, raw, err := trace.DecodeChunk(data)
	if err != nil {
		return nil, err
	}
	if idx != index {
		return nil, fmt.Errorf("sim: trace chunk entry %d carries index %d", index, idx)
	}
	return raw, nil
}

// Stats snapshots the cache counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	resident := e.traceResident
	e.mu.Unlock()
	return Stats{
		PrepareRuns:      e.prepRuns.Load(),
		PrepareHits:      e.prepHits.Load(),
		SimRuns:          e.simRuns.Load(),
		SimHits:          e.simHits.Load(),
		StoreHits:        e.storeHits.Load(),
		StoreMisses:      e.storeMisses.Load(),
		StorePuts:        e.storePuts.Load(),
		TraceCaptures:    e.traceCaptures.Load(),
		TraceReplayHits:  e.traceHits.Load(),
		TraceStoreHits:   e.traceStoreHits.Load(),
		TraceBytes:       e.traceBytes.Load(),
		TracePeerHits:    e.tracePeerHits.Load(),
		TracePeerRejects: e.tracePeerRejects.Load(),

		TraceChunkFaults:          e.chunkFaults.Load(),
		TraceChunkEvictions:       e.chunkEvictions.Load(),
		TraceChunkWindowPeakBytes: e.chunkWindowPeak.Load(),
		TraceResidentBytes:        resident,
		TraceChunkRecaptures:      e.chunkRecaptures.Load(),

		CondBranches:    e.feCondBranches.Load(),
		CondMispredicts: e.feCondMispreds.Load(),
		Mispredicts:     e.feMispredicts.Load(),
		PrefetchIssued:  e.fePrefIssued.Load(),
		PrefetchUseful:  e.fePrefUseful.Load(),
		PrefetchLate:    e.fePrefLate.Load(),
	}
}

// noteFrontend folds one executed simulation's front-end counters into the
// engine totals. Called wherever an in-process pipeline run produces a
// Result: trace replay, resident or recovered.
func (e *Engine) noteFrontend(res *uarch.Result) {
	e.feCondBranches.Add(res.CondBranches)
	e.feCondMispreds.Add(res.CondMispredicts)
	e.feMispredicts.Add(res.Mispredicts)
	e.fePrefIssued.Add(res.PrefetchIssued)
	e.fePrefUseful.Add(res.PrefetchUseful)
	e.fePrefLate.Add(res.PrefetchLate)
}

// call is one single-flight computation.
type call[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// acquire takes a worker slot, or fails if ctx is done first.
func (e *Engine) acquire(ctx context.Context) error {
	select {
	case e.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *Engine) release() { <-e.sem }

// singleflight runs compute under key in m exactly once. Duplicate callers
// wait for the leader (or their own ctx). A result carrying a context
// error is evicted from the cache, and waiters whose own context is still
// live retry it: one caller's cancellation must not fail an unrelated
// caller that happened to share the key.
func singleflight[K comparable, T any](
	e *Engine, ctx context.Context, m map[K]*call[T], key K,
	runs, hits *atomic.Int64, compute func(context.Context) (T, error),
) (T, error) {
	for {
		e.mu.Lock()
		c, ok := m[key]
		if !ok {
			c = &call[T]{done: make(chan struct{})}
			m[key] = c
			e.mu.Unlock()

			runs.Add(1)
			c.val, c.err = compute(ctx)
			if isCtxErr(c.err) {
				e.mu.Lock()
				delete(m, key)
				e.mu.Unlock()
			}
			close(c.done)
			return c.val, c.err
		}
		e.mu.Unlock()
		hits.Add(1)
		select {
		case <-c.done:
			if isCtxErr(c.err) && ctx.Err() == nil {
				// The leader was canceled by its own context and the entry
				// evicted; this caller is still live, so take over.
				continue
			}
			return c.val, c.err
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Prepare builds (or returns the cached) preparation for key: the
// benchmark's program, CFG, liveness, and basic-block frequency profile.
func (e *Engine) Prepare(ctx context.Context, key PrepareKey) (*Prepared, error) {
	return singleflight(e, ctx, e.preps, key, &e.prepRuns, &e.prepHits,
		func(ctx context.Context) (*Prepared, error) {
			if err := e.acquire(ctx); err != nil {
				return nil, err
			}
			defer e.release()
			b, ok := workload.ByName(key.Bench)
			if !ok {
				return nil, fmt.Errorf("sim: unknown benchmark %q", key.Bench)
			}
			p := b.Build(key.Input)
			g := program.BuildCFG(p, nil)
			lv := program.ComputeLiveness(g)
			prof, err := emu.ProfileProgram(p, nil, ProfileLimit)
			if err != nil {
				return nil, fmt.Errorf("%s: profile: %w", b.Name, err)
			}
			return &Prepared{Bench: b, Prog: p, CFG: g, Live: lv, Prof: prof}, nil
		})
}

// buildProgram materialises the simulated binary for one trace identity:
// the prepared original for baseline jobs, else extraction + rewrite under
// the key's axes. The returned templates and selection are immutable and
// safe to share across concurrently simulating arms.
func buildProgram(pr *Prepared, key TraceKey) (*isa.Program, []*core.Template, *core.Selection, error) {
	if key.Baseline {
		return pr.Prog, nil, nil, nil
	}
	sel := core.Extract(pr.CFG, pr.Live, pr.Prof, key.Policy, key.Entries)
	res, err := rewrite.Rewrite(pr.Prog, sel, key.Compress)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: rewrite: %w", pr.Bench.Name, err)
	}
	return res.Prog, res.Templates, sel, nil
}

// captureTrace returns the memoized capture for key's trace identity,
// emulating at most once per process no matter how many arms ask. With a
// store attached the capture round-trips through disk: a cold process
// loads the persisted manifest and chunks and never emulates. Like
// Prepare, the compute takes its own worker slot and callers must not
// hold one.
func (e *Engine) captureTrace(ctx context.Context, key SimKey, pr *Prepared) (*capturedTrace, error) {
	tk := key.TraceKey()
	ct, err := e.captureTraceLocked(ctx, tk, key, pr)
	if err == nil {
		// The LRU charges the memory the trace actually holds (chunk
		// buffer capacity, not rows in use) — a spilled trace costs its
		// manifest bookkeeping, not its logical size, so the budget admits
		// many large spilled traces at once.
		e.touchTrace(tk, ct.trace.ResidentBytes())
	}
	return ct, err
}

// evictTrace drops key's completed capture from the in-memory cache so
// the next captureTrace recomputes (or reloads) it — the recovery path
// after a replay lost a chunk mid-flight.
func (e *Engine) evictTrace(key TraceKey) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.traces[key]; ok {
		select {
		case <-c.done:
		default:
			return // in flight: its waiters own it
		}
		delete(e.traces, key)
	}
	if size, ok := e.traceSizes[key]; ok {
		e.traceResident -= size
		delete(e.traceSizes, key)
		for i, k := range e.traceOrder {
			if k == key {
				e.traceOrder = append(e.traceOrder[:i:i], e.traceOrder[i+1:]...)
				break
			}
		}
	}
}

// persistTrace writes tr's resident chunks and then its manifest to the
// store — in that order, so a crash between the two leaves orphan chunks
// (scrub fodder) rather than a manifest naming missing chunks. Chunks
// already spilled are already durable and are skipped. Returns false if
// any write failed, in which case the manifest is not written and the
// store reads as a clean miss.
func (e *Engine) persistTrace(tk TraceKey, keyBytes []byte, tr *trace.Trace) bool {
	io := &storeChunkIO{e: e, tk: tk}
	for ci := int64(0); ci < tr.NumChunks(); ci++ {
		if !tr.ChunkResident(ci) {
			continue
		}
		raw, err := tr.ChunkPayload(ci)
		if err != nil || io.SealChunk(ci, int64(len(raw))/trace.RecordBytes, raw, tr.ChunkCRC(ci)) != nil {
			return false
		}
	}
	if e.store.Put(keyBytes, trace.EncodeManifest(tr.Manifest())) != nil {
		return false
	}
	e.storePuts.Add(1)
	return true
}

func (e *Engine) captureTraceLocked(ctx context.Context, tk TraceKey, key SimKey, pr *Prepared) (*capturedTrace, error) {
	return singleflight(e, ctx, e.traces, tk, &e.traceRuns, &e.traceHits,
		func(ctx context.Context) (*capturedTrace, error) {
			if err := e.acquire(ctx); err != nil {
				return nil, err
			}
			defer e.release()
			prog, templates, sel, err := buildProgram(pr, tk)
			if err != nil {
				return nil, err
			}
			ct := &capturedTrace{prog: prog, templates: templates, sel: sel}
			var keyBytes []byte
			if e.store != nil {
				if kb, err := EncodeTraceKey(tk); err == nil {
					keyBytes = kb
					if tr, ok := e.storedTrace(tk); ok {
						// Verify the whole trace against its manifest before
						// adopting it. Unbounded window: materialize — verify
						// and retain in one pass, the fully resident
						// pre-chunking behavior. Bounded window: stream every
						// chunk through once (constant memory), then leave
						// the trace spilled for windowed replay.
						var verr error
						if e.chunkWindow <= 0 {
							verr = tr.Materialize()
						} else {
							for ci := int64(0); ci < tr.NumChunks() && verr == nil; ci++ {
								_, verr = tr.ChunkPayload(ci)
							}
						}
						if verr == nil {
							e.traceStoreHits.Add(1)
							e.traceBytes.Add(tr.SizeBytes())
							ct.trace = tr
							return ct, nil
						}
						// Incomplete or damaged: drop the manifest so the
						// trace reads as a clean miss everywhere (the chunks
						// it named become scrub fodder) and fall through to
						// re-sourcing it.
						e.store.Delete(keyBytes)
					}
				}
			}
			// Neither memory nor store has the capture; before emulating,
			// try to adopt the trace from a peer. Materializing checks every
			// fetched chunk against the manifest CRC, so a damaged transfer
			// degrades to a re-capture, never to a wrong replay.
			if e.traceFetch != nil {
				tr, err := e.traceFetch(ctx, tk)
				if err == nil && tr != nil {
					err = tr.Materialize()
				}
				switch {
				case err != nil:
					e.tracePeerRejects.Add(1)
				case tr != nil:
					e.tracePeerHits.Add(1)
					e.traceBytes.Add(tr.SizeBytes())
					ct.trace = tr
					if keyBytes != nil && e.persistTrace(tk, keyBytes, tr) && e.chunkWindow > 0 {
						// Durable in chunked form: swap the adopted trace for
						// its spilled equivalent so residency stays bounded
						// even right after a transfer.
						if spilled, ok := e.storedTrace(tk); ok {
							ct.trace = spilled
						}
					}
					return ct, nil
				}
			}
			var mgt *core.MGT
			if !tk.Baseline {
				mgt = core.NewMGT(templates, ExecParams(key.Config))
			}
			// The profile's dynamic-instruction count sizes the chunk
			// buffers in one allocation (nop-fill rewriting preserves record
			// counts). With a store and a bounded window, sealed chunks
			// spill to the store as capture proceeds — the capture itself
			// never holds more than one open chunk — and the manifest lands
			// after every chunk is durable.
			opts := trace.CaptureOptions{ChunkRecords: e.chunkRecords, Hint: pr.Prof.DynInsts}
			if keyBytes != nil && e.chunkWindow > 0 {
				opts.Sink = &storeChunkIO{e: e, tk: tk}
			}
			tr, err := trace.CaptureWith(ctx, prog, mgt, tk.Limit, opts)
			if err != nil {
				return nil, err
			}
			e.traceCaptures.Add(1)
			e.traceBytes.Add(tr.SizeBytes())
			if tr.Spilled() {
				tr.BindSource(&storeChunkIO{e: e, tk: tk})
			}
			ct.trace = tr
			if keyBytes != nil {
				e.persistTrace(tk, keyBytes, tr)
			}
			return ct, nil
		})
}

// Simulate runs (or returns the cached result of) one timing simulation.
// The run uses the job's canonical configuration (display name cleared),
// so a cached Outcome is identical no matter which of several
// cosmetically-renamed submissions executed it.
//
// The simulation replays the memoized captured trace for the job's binary
// (see captureTrace); only the first arm over a given rewrite pays for
// functional emulation, and its replaying siblings read the shared
// immutable trace through private cursors. By the golden-invariance rule
// the outcome is byte-identical to SimulateLive's for the same job.
//
// With a persistent store attached (WithStore), an in-memory miss first
// consults the store under the job's canonical key encoding — a hit skips
// preparation and the pipeline entirely — and a computed outcome is
// written through for future processes. Store failures are never job
// failures: a damaged entry is a miss and a failed write-through is
// dropped.
func (e *Engine) Simulate(ctx context.Context, job SimJob) (*Outcome, error) {
	// Refuse an impossible machine up front with a structured error. Job
	// specs arrive over HTTP; a degenerate config must fail its own job,
	// not panic a worker mid-sweep.
	if err := job.Config.Check(); err != nil {
		return nil, fmt.Errorf("sim: job %q: %w", job.Config.Name, err)
	}
	key := job.Key()
	return singleflight(e, ctx, e.sims, key, &e.simRuns, &e.simHits,
		func(ctx context.Context) (*Outcome, error) {
			var keyBytes []byte
			if e.store != nil {
				kb, err := EncodeSimKey(key)
				if err == nil {
					keyBytes = kb
					if data, ok := e.store.Get(keyBytes); ok {
						if out, err := DecodeOutcome(data); err == nil {
							e.storeHits.Add(1)
							return out, nil
						}
					}
					e.storeMisses.Add(1)
				}
			}
			pr, err := e.Prepare(ctx, job.Prepare)
			if err != nil {
				return nil, err
			}

			var res *uarch.Result
			var sel *core.Selection
			ct, err := e.captureTrace(ctx, key, pr)
			if err == nil {
				res, err = e.replay(ctx, key, job.Config.Name, ct)
				sel = ct.sel
			}
			if errors.Is(err, trace.ErrChunkUnavailable) {
				// A spilled chunk vanished mid-replay (store eviction under
				// pressure, a peer gone away). The trace itself is
				// reproducible — evict the stale handle and re-source it,
				// which re-verifies the store or re-captures.
				e.chunkRecaptures.Add(1)
				e.evictTrace(key.TraceKey())
				ct, err = e.captureTrace(ctx, key, pr)
				if err == nil {
					res, err = e.replay(ctx, key, job.Config.Name, ct)
					sel = ct.sel
				}
			}
			if errors.Is(err, trace.ErrChunkUnavailable) {
				// Still losing chunks after re-sourcing: the store is failing
				// reads, not just missing one entry. Recover without it — the
				// job completes even if every store read fails from here on.
				e.chunkRecaptures.Add(1)
				res, sel, err = e.replayResident(ctx, key, job.Config.Name, pr)
			}
			if err != nil {
				return nil, err
			}
			out := &Outcome{Result: res, Selection: sel}
			if keyBytes != nil {
				if data, err := EncodeOutcome(out); err == nil {
					if e.store.Put(keyBytes, data) == nil {
						e.storePuts.Add(1)
					}
				}
			}
			return out, nil
		})
}

// newPipeline builds the pipeline of every trace replay; tests wrap it to
// observe pipeline lifetimes.
var newPipeline = uarch.NewWithSource

// replay runs one timing simulation over a shared captured trace through a
// private zero-allocation cursor. cfgName is the job's display name (the
// canonical key clears it), used only in error messages.
func (e *Engine) replay(ctx context.Context, key SimKey, cfgName string, ct *capturedTrace) (*uarch.Result, error) {
	if err := e.acquire(ctx); err != nil {
		return nil, err
	}
	defer e.release()
	var mgt *core.MGT
	if !key.Baseline {
		mgt = core.NewMGT(ct.templates, ExecParams(key.Config))
	}
	rd := trace.NewReaderWindowed(ct.trace, ct.prog, key.Config.MaxRecords, e.chunkWindow)
	res, err := newPipeline(key.Config, mgt, rd).Run(ctx)
	e.noteWindow(rd.WindowStats())
	if err != nil {
		// ErrChunkUnavailable stays unwrappable through the %w so Simulate
		// can recover by re-capturing.
		return nil, fmt.Errorf("%s @ %s: %w", key.Prepare.Bench, cfgName, err)
	}
	e.noteFrontend(res)
	return res, nil
}

// replayResident is the last-resort recovery for replays that keep losing
// spilled chunks: a store whose reads fail persistently, not one that
// merely evicted an entry. It re-derives the trace fully resident — no
// sink, no bound window, no store traffic at all — so this attempt depends
// on nothing but the rewritten binary and always makes progress. The
// resident trace is private to this call and released on return; the
// residency bound yields to guaranteed completion for exactly this job.
func (e *Engine) replayResident(ctx context.Context, key SimKey, cfgName string, pr *Prepared) (*uarch.Result, *core.Selection, error) {
	if err := e.acquire(ctx); err != nil {
		return nil, nil, err
	}
	defer e.release()
	tk := key.TraceKey()
	prog, templates, sel, err := buildProgram(pr, tk)
	if err != nil {
		return nil, nil, err
	}
	var cmgt *core.MGT
	if !tk.Baseline {
		cmgt = core.NewMGT(templates, ExecParams(key.Config))
	}
	tr, err := trace.CaptureWith(ctx, prog, cmgt, tk.Limit, trace.CaptureOptions{ChunkRecords: e.chunkRecords, Hint: pr.Prof.DynInsts})
	if err != nil {
		return nil, nil, err
	}
	e.traceCaptures.Add(1)
	e.traceBytes.Add(tr.SizeBytes())
	var mgt *core.MGT
	if !key.Baseline {
		mgt = core.NewMGT(templates, ExecParams(key.Config))
	}
	rd := trace.NewReader(tr, prog, key.Config.MaxRecords)
	res, err := newPipeline(key.Config, mgt, rd).Run(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("%s @ %s: %w", key.Prepare.Bench, cfgName, err)
	}
	e.noteFrontend(res)
	return res, sel, nil
}

// SimulateLive is the live-emulation reference for one simulation: it
// builds the job's binary from pr and times it with step-by-step
// functional emulation inside the pipeline — no capture, no replay, no
// engine state, no memoization. The engine's replay path must reproduce
// its Outcome byte for byte through EncodeOutcome; the differential
// oracle and the golden-invariance test check exactly that.
func SimulateLive(ctx context.Context, pr *Prepared, job SimJob) (*Outcome, error) {
	if err := job.Config.Check(); err != nil {
		return nil, fmt.Errorf("sim: job %q: %w", job.Config.Name, err)
	}
	key := job.Key()
	prog, templates, sel, err := buildProgram(pr, key.TraceKey())
	if err != nil {
		return nil, err
	}
	var mgt *core.MGT
	if !key.Baseline {
		mgt = core.NewMGT(templates, ExecParams(key.Config))
	}
	res, err := uarch.New(key.Config, prog, mgt).Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s @ %s: %w", key.Prepare.Bench, job.Config.Name, err)
	}
	return &Outcome{Result: res, Selection: sel}, nil
}

// Run submits every job, waits for all of them, and returns the outcomes
// index-aligned with jobs. The first hard failure cancels the remaining
// jobs errgroup-style; the returned error joins every distinct failure
// (cancellations triggered by another job's failure are filtered out so
// the root causes are what surfaces).
func (e *Engine) Run(ctx context.Context, jobs []SimJob) ([]*Outcome, error) {
	return e.RunEach(ctx, jobs, nil)
}

// RunEach is Run with a completion hook: onDone(i, out) fires as each job
// finishes successfully, from that job's goroutine (it must be safe for
// concurrent use). Use it to stream progress during long sweeps.
//
// Every job is an independent Simulate on its own goroutine: arms sharing
// a TraceKey single-flight one capture and then replay it in parallel,
// each through a private cursor, bounded by the worker pool.
func (e *Engine) RunEach(ctx context.Context, jobs []SimJob, onDone func(i int, out *Outcome)) ([]*Outcome, error) {
	outs := make([]*Outcome, len(jobs))
	errs := make([]error, len(jobs))
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job SimJob) {
			defer wg.Done()
			outs[i], errs[i] = e.Simulate(gctx, job)
			if errs[i] != nil {
				cancel()
			} else if onDone != nil {
				onDone(i, outs[i])
			}
		}(i, job)
	}
	wg.Wait()
	return outs, JoinErrors(ctx, errs)
}

// Each runs fn(0..n-1) with the engine's concurrency bound and the same
// error semantics as Run. It bounds parallelism with its own limiter (not
// the worker pool) so fn may itself submit engine jobs without risking a
// pool deadlock.
func (e *Engine) Each(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	errs := make([]error, n)
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	limit := make(chan struct{}, e.workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case limit <- struct{}{}:
				defer func() { <-limit }()
			case <-gctx.Done():
				errs[i] = gctx.Err()
				return
			}
			if err := fn(gctx, i); err != nil {
				errs[i] = err
				cancel()
			}
		}(i)
	}
	wg.Wait()
	return JoinErrors(ctx, errs)
}

// JoinErrors joins every failure from a fan-out, dropping cancellations
// that were induced by a sibling's failure. If the parent ctx itself was
// canceled (or every error is a cancellation), the cancellation is
// reported as-is. Exported so sibling fan-out layers (the serving tier's
// coordinator) report sweep failures with the same semantics as Run.
func JoinErrors(ctx context.Context, errs []error) error {
	var hard []error
	var canceled error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			canceled = err
		default:
			hard = append(hard, err)
		}
	}
	if len(hard) > 0 {
		return errors.Join(hard...)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return canceled
}
