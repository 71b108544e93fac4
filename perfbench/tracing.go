package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// index of the enclosing span (-1 for none); times are milliseconds since
// the tracer started.
type span struct {
	Name    string  `json:"name"`
	Parent  int     `json:"parent"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// tracer keeps the traced pass's spans in memory. A nil *tracer records
// nothing, so untraced passes run the same code with no bookkeeping.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e6 }

// begin opens a span and returns its id for end and for child spans.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartMS: t.now()})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndMS = t.now()
}

// seconds sums the durations of every span called name.
func (t *tracer) seconds(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ms float64
	for _, s := range t.spans {
		if s.Name == name {
			ms += s.EndMS - s.StartMS
		}
	}
	return ms / 1e3
}

// write saves the spans as JSON under dir, named after the workload and
// seed, for inspection after the run.
func (t *tracer) write(dir, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed)), data, 0o644)
}

// runtimeValue reads one Go runtime metric.
func runtimeValue(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64()
	}
	return float64(s[0].Value.Uint64())
}

// runtimeSample is the Go runtime's cumulative counters at one instant.
type runtimeSample struct {
	gcCycles, gcCPU, totalCPU, allocBytes float64
}

func sampleRuntime() runtimeSample {
	return runtimeSample{
		gcCycles:   runtimeValue("/gc/cycles/total:gc-cycles"),
		gcCPU:      runtimeValue("/cpu/classes/gc/total:cpu-seconds"),
		totalCPU:   runtimeValue("/cpu/classes/total:cpu-seconds"),
		allocBytes: runtimeValue("/gc/heap/allocs:bytes"),
	}
}

// profiler records a CPU profile and Go runtime metrics over one traced
// pass.
type profiler struct {
	buf      bytes.Buffer
	start    runtimeSample
	stopHeap chan struct{}
	heapDone chan struct{}
	heapPeak float64
}

// heapSampleEvery is how often the heap sampler reads the heap size; the
// peak it reports can miss a spike shorter than this.
const heapSampleEvery = 10 * time.Millisecond

func startProfiler() (*profiler, error) {
	runtime.GC() // flush the runtime's CPU-class accounting
	p := &profiler{start: sampleRuntime(), stopHeap: make(chan struct{}), heapDone: make(chan struct{})}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	go func() {
		defer close(p.heapDone)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			p.heapPeak = max(p.heapPeak, runtimeValue("/memory/classes/heap/objects:bytes"))
			select {
			case <-p.stopHeap:
				return
			case <-tick.C:
			}
		}
	}()
	return p, nil
}

// stop ends the profile and reports the runtime and CPU-share metrics
// into b. The raw profile is kept under dir for `go tool pprof`.
func (p *profiler) stop(b *bench, dir string) error {
	pprof.StopCPUProfile()
	close(p.stopHeap)
	<-p.heapDone
	cycles := runtimeValue("/gc/cycles/total:gc-cycles")
	runtime.GC()
	end := sampleRuntime()
	end.gcCycles = cycles // the flushing GC above is the benchmark's, not the pass's

	b.layer("go.gc_cycles", end.gcCycles-p.start.gcCycles, "count")
	if cpu := end.totalCPU - p.start.totalCPU; cpu > 0 {
		b.layer("go.gc_cpu_share", (end.gcCPU-p.start.gcCPU)/cpu, "ratio")
	}
	b.layer("go.alloc_mb", (end.allocBytes-p.start.allocBytes)/(1<<20), "MB")
	b.layer("go.heap_peak_mb", p.heapPeak/(1<<20), "MB")

	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("cpu-%s-%d.pprof", b.workload, b.seed)), p.buf.Bytes(), 0o644); err != nil {
		return err
	}
	shares, err := cpuShares(p.buf.Bytes())
	if err != nil {
		return err
	}
	for _, m := range cpuModules {
		b.layer("cpu."+m, shares[m], "share")
	}
	return nil
}

// cpuModules are the CPU-share buckets, in report order. "other" takes
// what no listed module claims (program construction, the scheduler's
// own work, the benchmark's bookkeeping).
var cpuModules = []string{"uarch", "emu", "trace", "core", "sim", "store", "serve", "sha256", "json", "gc", "other"}

// cpuShares reads a gzipped pprof CPU profile and returns each module's
// share of the sampled CPU time. A sample belongs to cpu.gc when any of
// its frames is garbage-collector work. Otherwise its leaf frame decides,
// except that standard-library helpers (runtime allocation and copying,
// syscalls, hashing, sorting) are charged to the first caller outside
// them, so a memmove inside trace decoding counts as trace time.
func cpuShares(gz []byte) (map[string]float64, error) {
	prof, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	byModule := map[string]float64{}
	var total float64
	for _, s := range prof.samples {
		frames := prof.frames(s.locations)
		m := moduleOf(frames)
		byModule[m] += s.value
		total += s.value
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares, nil
	}
	for m, v := range byModule {
		shares[m] = v / total
	}
	return shares, nil
}

// moduleOf buckets one sample's stack (leaf first).
func moduleOf(frames []string) string {
	for _, f := range frames {
		if isGC(f) {
			return "gc"
		}
	}
	for _, f := range frames {
		pkg := packageOf(f)
		if isHelper(pkg) {
			continue
		}
		switch {
		case strings.HasPrefix(pkg, "minigraph/internal/"):
			mod, _, _ := strings.Cut(strings.TrimPrefix(pkg, "minigraph/internal/"), "/")
			switch mod {
			case "uarch", "emu", "trace", "core", "sim", "store", "serve":
				return mod
			}
			return "other"
		case strings.Contains(pkg, "sha256"):
			return "sha256"
		case pkg == "encoding/json" || pkg == "encoding/base64" || pkg == "encoding/hex":
			return "json"
		case pkg == "net/http" || strings.HasPrefix(pkg, "net/") || pkg == "net":
			return "serve"
		}
		return "other"
	}
	return "other"
}

// isGC reports whether a frame is garbage-collector work.
func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.greyobject"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// isHelper reports whether pkg is a standard-library helper whose time is
// charged to its caller's module.
func isHelper(pkg string) bool {
	if strings.HasPrefix(pkg, "internal/") || strings.HasPrefix(pkg, "runtime") || strings.HasPrefix(pkg, "hash/") ||
		strings.HasPrefix(pkg, "sync") || strings.HasPrefix(pkg, "math") || strings.HasPrefix(pkg, "unicode") ||
		strings.HasPrefix(pkg, "compress/") || strings.HasPrefix(pkg, "container/") {
		return !strings.Contains(pkg, "sha256")
	}
	switch pkg {
	case "syscall", "os", "io", "io/fs", "bytes", "strings", "strconv", "sort", "slices", "maps", "bufio",
		"time", "context", "errors", "fmt", "reflect", "path/filepath", "encoding/binary":
		return true
	}
	return false
}

// packageOf extracts the import path from a fully qualified Go function
// name such as "minigraph/internal/uarch.(*Pipeline).issue".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profileData is the part of a pprof profile cpuShares needs.
type profileData struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locations []uint64
	value     float64
}

// frames names a sample's functions leaf first, inlined frames included.
func (p *profileData) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, fid := range p.locations[l] {
			if si := p.functions[fid]; si >= 0 && int(si) < len(p.strings) {
				out = append(out, p.strings[si])
			}
		}
	}
	return out
}

// decodeProfile parses the gzipped protocol-buffer profile runtime/pprof
// writes. Only the fields cpuShares uses are read: samples (location ids
// and values), locations (lines' function ids), functions (name) and the
// string table. The last sample value (CPU nanoseconds) is the weight.
func decodeProfile(gz []byte) (*profileData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profileData{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locations = appendPacked(s.locations, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = float64(int64(vals[len(vals)-1]))
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // Function
			var id uint64
			name := int64(-1)
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// appendPacked appends a repeated varint field that arrived either as one
// varint (v) or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed protocol buffer")

// eachField walks one protocol-buffer message, calling fn with each
// field's number and either its varint value or its length-delimited
// bytes (nil for varints). Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}
