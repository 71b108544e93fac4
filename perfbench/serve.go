package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"minigraph/internal/serve"
	"minigraph/internal/sim"
	"minigraph/internal/store"
	"minigraph/internal/trace"
	"minigraph/internal/uarch"
	"minigraph/internal/uarch/bpred"
	"minigraph/internal/uarch/prefetch"
	"minigraph/internal/workload"
)

const (
	// serveClients is the closed loop's client count: each sends its next
	// request only after the previous reply, as mgserve callers do.
	serveClients = 2
	// serveChunkWindow bounds each replay's resident trace chunks, the
	// larger-than-RAM mode of `mgserve -cache-dir DIR -trace-chunk-window 2`.
	serveChunkWindow = 2
	// serveMissEvery places one miss (a machine config never simulated
	// before) in every block of this many requests; the rest repeat
	// stored arms.
	serveMissEvery = 10
	// serveUnitRequests is how many requests one measured unit sends, so
	// every unit does the same work (the same number of misses, and with
	// them the same retained memory) however fast the host serves. Its 64
	// misses cover every (binary, predictor, prefetcher) combination
	// four times.
	serveUnitRequests = 640
	// serveNominalUnit is about how long one unit takes on the reference
	// host; it sets how many units a run measures.
	serveNominalUnit = 16 * time.Second
)

// poolLatencies are the DRAM latencies of the stored arms (0 keeps the
// machine preset's); misses draw theirs from [missLatencyMin,
// missLatencyMax] outside this set.
var poolLatencies = []int{0, 150}

const missLatencyMin, missLatencyMax = 60, 300

var (
	predictors  = []string{bpred.KindHybrid, bpred.KindTAGE}
	prefetchers = []string{prefetch.KindNone, prefetch.KindDelta}
)

// mgSpec is the /v1/simulate request for bench on the mini-graph machine.
func mgSpec(bench string, lat int, pred, pf string) serve.JobSpec {
	return serve.JobSpec{Bench: bench, MaxSize: mgMaxSize, MemLatency: lat, Predictor: pred, Prefetcher: pf}
}

// request is one generated /v1/simulate call.
type request struct {
	spec serve.JobSpec
	miss bool
}

// requestGen yields one unit's seeded request sequence, limit requests
// long: in each block of serveMissEvery requests one, at a seeded
// position, is a miss; the others repeat a seeded choice of stored arm.
// Misses cycle through every (benchmark, predictor, prefetcher)
// combination in seeded order, each with a fresh seeded DRAM latency, so
// every miss is a new arm and each unit's misses cover the same mix of
// binaries.
type requestGen struct {
	b      *bench
	pool   []serve.JobSpec
	limit  int
	mu     sync.Mutex
	n      int
	missAt int
	combos []serve.JobSpec
	used   map[serve.JobSpec]bool
}

// next returns the next request, or false once limit have been issued.
func (g *requestGen) next() (request, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.n == g.limit {
		return request{}, false
	}
	pos := g.n % serveMissEvery
	if pos == 0 {
		g.missAt = g.b.rng.IntN(serveMissEvery)
	}
	g.n++
	if pos != g.missAt {
		return request{spec: g.pool[g.b.rng.IntN(len(g.pool))]}, true
	}
	if len(g.combos) == 0 {
		for _, name := range workload.BenchSubset() {
			for _, pred := range predictors {
				for _, pf := range prefetchers {
					g.combos = append(g.combos, mgSpec(name, 0, pred, pf))
				}
			}
		}
		g.b.rng.Shuffle(len(g.combos), func(i, j int) { g.combos[i], g.combos[j] = g.combos[j], g.combos[i] })
	}
	spec := g.combos[0]
	g.combos = g.combos[1:]
	for {
		spec.MemLatency = missLatencyMin + g.b.rng.IntN(missLatencyMax-missLatencyMin+1)
		if spec.MemLatency != uarch.MiniGraph(true).MemLatency && !slices.Contains(poolLatencies, spec.MemLatency) && !g.used[spec] {
			break
		}
	}
	g.used[spec] = true
	return request{spec: spec, miss: true}, true
}

// recorder keeps the raw body of the last response, so the benchmark can
// compare replies byte for byte while serve.Client decodes them. Each
// client goroutine has its own.
type recorder struct {
	base http.RoundTripper
	last []byte
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := r.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	r.last = body
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// statsz is the part of mgserve's /statsz the benchmark reads.
type statsz struct {
	Engine sim.Stats    `json:"engine"`
	Store  *store.Stats `json:"store"`
}

// serveStats fetches /statsz.
func serveStats(ctx context.Context, hc *http.Client, base string) (statsz, error) {
	var st statsz
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/statsz", nil)
	if err != nil {
		return st, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return st, fmt.Errorf("statsz: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("statsz: %w", err)
	}
	if st.Store == nil {
		return st, fmt.Errorf("statsz: server reports no store")
	}
	return st, nil
}

// runServe measures mgserve's handler behind a loopback listener, its
// engine on a persistent store with a bounded trace-chunk window. In
// set-up a prior engine captures the four golden-subset traces into the
// store and simulates the pool of stored arms, so the server starts like
// a restarted worker. Two closed-loop clients then send serveUnitRequests
// /v1/simulate calls: nine in ten repeat a stored arm (hit), one in ten is
// a new machine config over a stored trace (miss). A run measures a fixed
// number of such units (b.unitsFor), each on a fresh server and store.
// One operation is one request; it fails on an error, a refusal, a
// retired digest that differs from the emulator's, a hit whose result
// differs from the prior engine's outcome for that arm, or a repeated hit
// whose bytes differ from the first reply for that arm.
func runServe(ctx context.Context, b *bench) error {
	var pool []serve.JobSpec
	for _, name := range workload.BenchSubset() {
		for _, lat := range poolLatencies {
			for _, pred := range predictors {
				for _, pf := range prefetchers {
					pool = append(pool, mgSpec(name, lat, pred, pf))
				}
			}
		}
	}
	return b.measure(ctx, b.unitsFor(serveNominalUnit), func(ctx context.Context) (*unit, error) {
		s, err := startServer(ctx, pool)
		if err != nil {
			return nil, err
		}
		gen := &requestGen{b: b, pool: pool, limit: serveUnitRequests, used: map[serve.JobSpec]bool{}}
		u := &unit{close: s.close}
		var (
			mu              sync.Mutex
			hitMS, missMS   []float64
			first           = map[serve.JobSpec][]byte{}
			served          []serve.JobSpec // distinct arms in first-reply order
			requests, fails int
			errs, rejected  int
			respBytes       int
			missResults     []*uarch.Result
			before          statsz
		)
		u.run = func(ctx context.Context, tr *tracer) (int, error) {
			if tr != nil {
				st, err := serveStats(ctx, s.hc, s.base)
				if err != nil {
					return 0, err
				}
				before = st
			}
			var wg sync.WaitGroup
			for range serveClients {
				rec := &recorder{base: s.transport}
				c := serve.NewClient(s.base)
				c.HTTP = &http.Client{Transport: rec}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for ctx.Err() == nil {
						r, ok := gen.next()
						if !ok {
							return
						}
						sp := tr.begin("serve.simulate", -1)
						start := time.Now()
						jr, err := c.Simulate(ctx, r.spec)
						ms := float64(time.Since(start).Nanoseconds()) / 1e6
						tr.end(sp)

						mu.Lock()
						requests++
						var se *serve.StatusError
						switch {
						case errors.As(err, &se) && (se.Status == http.StatusTooManyRequests || se.Status == http.StatusServiceUnavailable):
							rejected++
							b.check(false, "serve: %s refused: %v", r.spec.Bench, err)
						case err != nil:
							errs++
							b.check(false, "serve: %s: %v", r.spec.Bench, err)
						default:
							respBytes += len(rec.last)
							b.checkOutcome(fmt.Sprintf("serve: %+v", r.spec), jr.Result, s.refs[r.spec.Bench])
							if want, ok := s.want[r.spec]; ok {
								got, err := json.Marshal(jr)
								b.check(err == nil && bytes.Equal(got, want), "serve: %+v differs from the prior engine's outcome", r.spec)
							}
							if prev, ok := first[r.spec]; ok {
								b.check(bytes.Equal(prev, rec.last), "serve: repeated %+v differs from its first reply", r.spec)
							} else {
								first[r.spec] = bytes.Clone(rec.last)
								served = append(served, r.spec)
							}
							if r.miss {
								missMS = append(missMS, ms)
								missResults = append(missResults, jr.Result)
							} else {
								hitMS = append(hitMS, ms)
							}
						}
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			return requests - rejected - errs, ctx.Err()
		}
		u.check = func(wall time.Duration) {
			b.attempted += requests
			fails = rejected + errs
			b.report("serve_req_per_s", float64(requests-fails)/wall.Seconds(), "req/s")
			b.report("serve_hit_p50_ms", percentile(hitMS, 50), "ms")
			b.report("serve_hit_p99_ms", percentile(hitMS, 99), "ms")
			b.report("serve_miss_p50_ms", percentile(missMS, 50), "ms")
			b.report("serve_miss_p90_ms", percentile(missMS, 90), "ms")
			fmt.Printf("perfbench: serve %d hits, %d misses\n", len(hitMS), len(missMS))
		}
		u.after = func(ctx context.Context, tr *tracer) error {
			after, err := serveStats(ctx, s.hc, s.base)
			if err != nil {
				return err
			}
			b.layer("serve.requests", float64(requests), "count")
			b.layer("serve.errors", float64(errs), "count")
			b.layer("serve.rejected", float64(rejected), "count")
			b.layer("serve.resp_bytes_mean", float64(respBytes)/float64(max(requests-fails, 1)), "bytes")
			b.layer("serve.hit_p50_ms", percentile(hitMS, 50), "ms")
			b.layer("serve.hit_p99_ms", percentile(hitMS, 99), "ms")
			b.layer("serve.miss_p50_ms", percentile(missMS, 50), "ms")
			b.layer("serve.miss_p90_ms", percentile(missMS, 90), "ms")
			var decodeMS []float64
			for _, spec := range served {
				sp := tr.begin("serve.decode", -1)
				start := time.Now()
				var jr serve.JobResult
				err := json.Unmarshal(first[spec], &jr)
				decodeMS = append(decodeMS, float64(time.Since(start).Nanoseconds())/1e6)
				tr.end(sp)
				if err != nil {
					return fmt.Errorf("decode reply: %w", err)
				}
			}
			b.layer("serve.decode_ms_p50", median(decodeMS), "ms")

			b.simLayers(statsDelta(after.Engine, before.Engine), nil)
			// The pipeline runs inside the handler, so serve records only
			// the simulated counts of its misses (hits simulate nothing);
			// the pipeline's host time shows as cpu.uarch.
			b.uarchLayers(missResults, 0, 0)
			b.layer("store.hits", float64(after.Store.Hits-before.Store.Hits), "count")
			b.layer("store.misses", float64(after.Store.Misses-before.Store.Misses), "count")
			b.layer("store.puts", float64(after.Store.Puts-before.Store.Puts), "count")
			b.layer("store.bytes", float64(after.Store.Bytes-before.Store.Bytes), "bytes")
			if err := s.storeLayers(b, tr, served); err != nil {
				return err
			}
			_, err = probeLayers(ctx, b, tr, workload.BenchSubset(), false)
			return err
		}
		return u, nil
	})
}

// statsDelta returns the engine counters accumulated between two
// snapshots (the window peak is a high-water mark and is kept as is).
func statsDelta(a, b sim.Stats) sim.Stats {
	return sim.Stats{
		PrepareRuns:               a.PrepareRuns - b.PrepareRuns,
		SimRuns:                   a.SimRuns - b.SimRuns,
		SimHits:                   a.SimHits - b.SimHits,
		TraceCaptures:             a.TraceCaptures - b.TraceCaptures,
		TraceReplayHits:           a.TraceReplayHits - b.TraceReplayHits,
		TraceStoreHits:            a.TraceStoreHits - b.TraceStoreHits,
		TraceChunkFaults:          a.TraceChunkFaults - b.TraceChunkFaults,
		TraceChunkEvictions:       a.TraceChunkEvictions - b.TraceChunkEvictions,
		TraceChunkWindowPeakBytes: a.TraceChunkWindowPeakBytes,
	}
}

// server is the serve workload's running mgserve handler and its store.
type server struct {
	dir       string
	st        *store.Store
	srv       *serve.Server
	hs        *http.Server
	served    chan error
	transport *http.Transport
	hc        *http.Client
	base      string
	refs      map[string]reference
	// want holds, per stored arm, the prior engine's freshly simulated
	// outcome as a compactly encoded serve.JobResult: every hit's decoded
	// reply must re-encode to exactly these bytes.
	want map[serve.JobSpec][]byte
}

// startServer fills a fresh store through a prior engine (the four
// traces plus the pool's outcomes), keeps those outcomes as the expected
// hit replies, then serves a new engine on the reopened store behind a
// loopback listener.
func startServer(ctx context.Context, pool []serve.JobSpec) (_ *server, err error) {
	dir, err := os.MkdirTemp(outDir, "serve-store-")
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir, refs: map[string]reference{}, want: map[serve.JobSpec][]byte{}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	prior := sim.New(0).WithTraceChunkWindow(serveChunkWindow).WithStore(st)
	for _, name := range workload.BenchSubset() {
		if s.refs[name], err = emulatorReference(ctx, prior, name); err != nil {
			return nil, err
		}
	}
	jobs := make([]sim.SimJob, len(pool))
	for i, spec := range pool {
		if jobs[i], err = spec.Resolve(); err != nil {
			return nil, err
		}
	}
	outs, err := prior.Run(ctx, jobs)
	if err != nil {
		return nil, fmt.Errorf("fill store: %w", err)
	}
	for i, spec := range pool {
		// The fields mgserve's /v1/simulate reply carries for an outcome.
		jr := serve.JobResult{Arm: spec.Arm, Result: outs[i].Result, IPC: outs[i].Result.IPC()}
		if sel := outs[i].Selection; sel != nil {
			jr.Coverage, jr.Templates = sel.Coverage(), len(sel.Templates)
		}
		if s.want[spec], err = json.Marshal(jr); err != nil {
			return nil, err
		}
	}

	if s.st, err = store.Open(dir, store.Options{}); err != nil {
		return nil, err
	}
	eng := sim.New(0).WithTraceChunkWindow(serveChunkWindow).WithStore(s.st)
	if s.srv, err = serve.New(serve.Options{Engine: eng}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: s.srv, ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.transport = &http.Transport{MaxIdleConnsPerHost: serveClients}
	s.hc = &http.Client{Transport: s.transport}
	c := serve.NewClient(s.base)
	c.HTTP = s.hc
	if err := c.Health(ctx); err != nil {
		return nil, fmt.Errorf("health: %w", err)
	}
	return s, nil
}

// close stops the server, waits for it to exit, and deletes the store.
func (s *server) close() {
	if s.hs != nil {
		s.hs.Close()
		<-s.served
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
	os.RemoveAll(s.dir)
}

// storeLayers times the store and trace-chunk layers directly over the
// workload's own entries: a Get and a Put of each served arm's outcome,
// and the get-decode-verify of every chunk of the four stored traces.
func (s *server) storeLayers(b *bench, tr *tracer, served []serve.JobSpec) error {
	var getMS, putMS []float64
	for _, spec := range served {
		job, err := spec.Resolve()
		if err != nil {
			return err
		}
		key, err := sim.EncodeSimKey(job.Key())
		if err != nil {
			return err
		}
		sp := tr.begin("store.get", -1)
		start := time.Now()
		val, ok := s.st.Get(key)
		getMS = append(getMS, float64(time.Since(start).Nanoseconds())/1e6)
		tr.end(sp)
		if !ok {
			return fmt.Errorf("store: served arm %+v is not stored", spec)
		}
		sp = tr.begin("store.put", -1)
		start = time.Now()
		err = s.st.Put(key, val)
		putMS = append(putMS, float64(time.Since(start).Nanoseconds())/1e6)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("store: put: %w", err)
		}
	}
	b.layer("store.get_ms_p50", median(getMS), "ms")
	b.layer("store.put_ms_p50", median(putMS), "ms")

	var loadMS []float64
	for _, name := range workload.BenchSubset() {
		tk := mgJob(name, uarch.MiniGraph(true)).Key().TraceKey()
		kb, err := sim.EncodeTraceKey(tk)
		if err != nil {
			return err
		}
		data, ok := s.st.Get(kb)
		if !ok {
			return fmt.Errorf("store: no trace manifest for %s", name)
		}
		m, err := trace.DecodeManifest(data)
		if err != nil {
			return err
		}
		t, err := trace.FromManifest(m, &chunkSource{st: s.st, tk: tk})
		if err != nil {
			return err
		}
		for ci := range t.NumChunks() {
			sp := tr.begin("trace.chunk_load", -1)
			start := time.Now()
			_, err := t.ChunkPayload(ci)
			loadMS = append(loadMS, float64(time.Since(start).Nanoseconds())/1e6)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s chunk %d: %w", name, ci, err)
			}
		}
	}
	b.layer("trace.chunk_load_ms", median(loadMS), "ms")
	return nil
}

// chunkSource reads one stored trace's chunk entries through the public
// store and trace codecs; Trace.ChunkPayload verifies what it returns.
type chunkSource struct {
	st *store.Store
	tk sim.TraceKey
}

func (c *chunkSource) FetchChunk(index int64) ([]byte, error) {
	kb, err := sim.EncodeTraceChunkKey(c.tk, index)
	if err != nil {
		return nil, err
	}
	data, ok := c.st.Get(kb)
	if !ok {
		return nil, fmt.Errorf("chunk %d not stored", index)
	}
	idx, raw, err := trace.DecodeChunk(data)
	if err != nil {
		return nil, err
	}
	if idx != index {
		return nil, fmt.Errorf("chunk entry %d carries index %d", index, idx)
	}
	return raw, nil
}
