package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
	"testing/quick"
	"time"

	"mccs/internal/sim"
)

// labelPool mixes the labels real runs use with strings that exercise
// every escaping rule: HTML-unsafe and JSON-special ASCII, control
// bytes, non-ASCII text, invalid UTF-8, U+2028/U+2029, and a node-style
// name that collides with the "n%d" fallback.
var labelPool = []string{
	"", "AllReduce", "external", "tenant-a", "allreduce", "n3",
	`<b>&"q"\`, "tab\tnl\ncr\r\x00\x01\b\f\x1f\x7f", "héllo wörld", "日本語",
	"bad\xffutf8\xe2\x80", "\xe2", "sep\u2028par\u2029", "a<b", "x/y'z",
}

// floatPool covers encoding/json's formatting boundaries: the 'e' form
// below 1e-6 and from 1e21, single- and multi-digit exponents, and -0.
var floatPool = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 6.25e9, 123456789.123,
	1e21, -1e21, 9.999999e20, 1e22, 1.5e300, math.MaxFloat64,
	1e-6, 9.99e-7, 1e-7, -1e-7, 5e-9, 1e-10, 5e-324,
	1 << 53, 1<<53 - 1, -(1<<53 - 1), 1<<53 + 2, 1e15 + 0.5,
}

func pickLabel(r *rand.Rand) string {
	if r.Intn(8) == 0 {
		b := make([]byte, r.Intn(6))
		r.Read(b)
		return string(b)
	}
	return labelPool[r.Intn(len(labelPool))]
}

func pickFloat(r *rand.Rand) float64 {
	switch r.Intn(5) {
	case 0:
		return r.NormFloat64() * 1e9
	case 1:
		return r.Float64() * 1e-6
	case 2:
		// Integral values on both sides of 2^53.
		return float64(r.Int63n(1<<54) - 1<<53)
	default:
		return floatPool[r.Intn(len(floatPool))]
	}
}

// pickID draws an identity field: mostly a few small values (so spans
// share thread rows), sometimes negative or large.
func pickID(r *rand.Rand) int32 {
	switch r.Intn(8) {
	case 0:
		return -r.Int31()
	case 1:
		return r.Int31()
	default:
		return r.Int31n(5) - 1
	}
}

func randomSpan(r *rand.Rand) Span {
	start := sim.Time(r.Int63n(1 << 40))
	switch r.Intn(10) {
	case 0:
		start = -start
	case 1:
		// Around 2^50 ns, where ns/1e3 has under three decimals of
		// precision left.
		start = sim.Time(1<<50 + r.Int63n(2000) - 1000)
	case 2:
		start = sim.Time(r.Int63() - r.Int63())
	}
	end := start
	switch r.Intn(4) {
	case 0: // zero duration
	case 1:
		end = start - sim.Time(r.Int63n(1000))
	default:
		end = start + sim.Time(r.Int63n(1<<32))
	}
	sp := Span{
		Kind: Kind(r.Intn(len(kindNames) + 2)), Op: r.Int31n(9) - 2,
		Start: start, End: end,
		Host: pickID(r), GPU: pickID(r), Comm: pickID(r), Rank: pickID(r),
		Peer: pickID(r), Channel: pickID(r), Gen: pickID(r), Step: pickID(r),
		Seq: uint64(r.Intn(4)), Flow: int64(pickID(r)), Bytes: r.Int63() - r.Int63(),
		Src: pickID(r), Dst: pickID(r), Label: pickLabel(r),
	}
	if r.Intn(2) == 0 {
		sp.Busy = sim.Duration(r.Int63n(1<<30) - 1<<20)
	}
	if r.Intn(4) == 0 {
		sp.Seq = r.Uint64()
	}
	switch r.Intn(3) {
	case 0: // nil
	case 1:
		sp.Route = []int32{}
	default:
		for i := r.Intn(5); i >= 0; i-- {
			sp.Route = append(sp.Route, pickID(r))
		}
	}
	switch r.Intn(3) {
	case 0: // nil
	case 1:
		sp.Rates = []RateSample{}
	default:
		for i := r.Intn(4); i >= 0; i-- {
			sp.Rates = append(sp.Rates, RateSample{
				T: sim.Time(r.Int63n(1 << 40)), Bps: pickFloat(r), Bottleneck: pickID(r),
				LinkBps: pickFloat(r), ExtBps: pickFloat(r), CapBps: pickFloat(r),
			})
		}
	}
	return sp
}

func randomMeta(r *rand.Rand) Meta {
	var m Meta
	for i := r.Intn(4); i > 0; i-- {
		m.Hosts = append(m.Hosts, pickLabel(r))
	}
	for i := r.Intn(7); i > 0; i-- {
		m.GPUHost = append(m.GPUHost, r.Int31n(5)-1)
		m.NodeHost = append(m.NodeHost, r.Int31n(5)-1)
		m.NodeNames = append(m.NodeNames, pickLabel(r))
	}
	for i := r.Intn(3); i > 0; i-- {
		m.Links = append(m.Links, LinkMeta{Name: pickLabel(r), CapBps: pickFloat(r)})
	}
	if r.Intn(2) == 0 {
		m.CommApp = map[int32]string{pickID(r): pickLabel(r), pickID(r): pickLabel(r)}
	}
	return m
}

// writeRecording exports a Recording as (*Recorder).WriteChrome exports
// its ring.
func writeRecording(w io.Writer, rec Recording) error {
	return writeChrome(w, &rec.Meta, rec.Dropped, rec.Spans, nil)
}

// TestWriteChromeMatchesReference is the differential test: for random
// recordings, and for a wrapped recorder streamed straight from its
// ring, WriteChrome must write byte-for-byte what the encoding/json
// reference encoder writes.
func TestWriteChromeMatchesReference(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rec := Recording{Meta: randomMeta(r), Dropped: r.Uint64() >> r.Intn(64)}
		for i := r.Intn(80); i > 0; i-- {
			rec.Spans = append(rec.Spans, randomSpan(r))
		}
		var want, got bytes.Buffer
		if err := refWriteChrome(&want, rec); err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		if err := writeRecording(&got, rec); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("seed %d: export differs from reference\n got: %.2000s\nwant: %.2000s", seed, got.Bytes(), want.Bytes())
			return false
		}

		// The same spans through a small ring that wraps: the stream
		// covers both halves, oldest first.
		ring := NewRecorder(LevelFull, 1+r.Intn(16))
		ring.SetTopology(rec.Meta.Hosts, rec.Meta.GPUHost, rec.Meta.NodeHost, rec.Meta.NodeNames)
		for _, sp := range rec.Spans {
			ring.Emit(sp)
		}
		want.Reset()
		got.Reset()
		if err := refWriteChrome(&want, ring.Snapshot()); err != nil {
			t.Fatalf("seed %d: reference ring: %v", seed, err)
		}
		if err := ring.WriteChrome(&got); err != nil {
			t.Fatalf("seed %d: ring: %v", seed, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("seed %d: ring export differs from reference", seed)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// TestWriteChromeRejectsNonFinite keeps encoding/json's contract: NaN
// and ±Inf are not JSON, so a rate holding one is an export error.
func TestWriteChromeRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 4; field++ {
			s := RateSample{Bps: 1, LinkBps: 2, ExtBps: 3, CapBps: 4}
			*[]*float64{&s.Bps, &s.LinkBps, &s.ExtBps, &s.CapBps}[field] = bad
			rec := testRecording()
			rec.Spans[1].Rates = append(rec.Spans[1].Rates, s)
			if err := writeRecording(io.Discard, rec); err == nil {
				t.Errorf("rate field %d = %v: WriteChrome returned no error", field, bad)
			}
			if err := refWriteChrome(io.Discard, rec); err == nil {
				t.Errorf("rate field %d = %v: reference returned no error", field, bad)
			}
		}
	}
}

// TestWriteChromeReturnsWriteError: a failing writer's error is
// returned, also when it fails on a flush in the middle of the spans.
func TestWriteChromeReturnsWriteError(t *testing.T) {
	errFull := errors.New("disk full")
	if err := mixedRecorder(1000, 1000).WriteChrome(failWriter{errFull}); !errors.Is(err, errFull) {
		t.Errorf("WriteChrome = %v, want %v", err, errFull)
	}
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

// mixedSpan returns the i'th span of a synthetic run mixing every span
// kind the datapath emits. The thread rows it touches are a fixed set
// however large i grows.
func mixedSpan(i int) Span {
	at := sim.Time(time.Duration(i) * time.Microsecond)
	sp := Span{
		Op: int32(i % 5), Start: at, End: at.Add(time.Duration(1+i%97) * time.Microsecond),
		Host: int32(i % 2), GPU: int32(i % 4), Comm: 1 + int32(i%3), Rank: int32(i % 4),
		Peer: int32((i + 1) % 4), Channel: int32(i % 2), Step: int32(i % 6), Seq: uint64(i),
		Flow: int64(i), Bytes: 1 << 20, Src: int32(i % 2), Dst: int32((i + 1) % 2),
	}
	switch i % 8 {
	case 0:
		sp.Kind = KindOp
	case 1, 2:
		sp.Kind = KindStep
		sp.Busy = sim.Duration(i % 1000)
	case 3, 4:
		sp.Kind, sp.Host = KindFlow, -1
		sp.Route = []int32{sp.Src, 2, sp.Dst}
		sp.Rates = []RateSample{
			{T: at, Bps: 6.25e9, Bottleneck: 2, LinkBps: 12.5e9, CapBps: 12.5e9},
			{T: at.Add(time.Microsecond), Bps: 3.125e9, Bottleneck: 2, LinkBps: 12.5e9, ExtBps: 6.25e9, CapBps: 12.5e9},
		}
	case 5:
		sp.Kind, sp.Label = KindCmd, "tenant-a"
	case 6:
		sp.Kind, sp.Host, sp.Flow, sp.Label = KindKernel, -1, int64(i%2), "allreduce"
	case 7:
		sp.Kind, sp.Op = KindBarrier, int32(i%5)
	}
	return sp
}

func mixedRecorder(capacity, spans int) *Recorder {
	r := NewRecorder(LevelFull, capacity)
	r.SetTopology([]string{"host0", "host1"}, []int32{0, 0, 1, 1}, []int32{0, 1, -1}, []string{"h0-nic0", "h1-nic0", "sw0"})
	r.SetLinks([]LinkMeta{{Name: "h0-nic0->sw0", CapBps: 12.5e9}, {Name: "sw0->h1-nic0", CapBps: 12.5e9}})
	r.NoteComm(1, "tenant-a")
	for i := 0; i < spans; i++ {
		r.Emit(mixedSpan(i))
	}
	return r
}

// TestWriteChromeAllocsPerRowNotPerSpan guards the export cost: the
// encoder's allocations follow the number of thread rows, so ten times
// the spans over the same rows allocates exactly as often. The
// collector is paused while measuring: a GC empties encoding/json's
// sync.Pool of encoders, and refilling it would count as the export's.
func TestWriteChromeAllocsPerRowNotPerSpan(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(spans int) float64 {
		r := mixedRecorder(spans, spans+spans/3) // wrapped: both halves stream
		return testing.AllocsPerRun(3, func() {
			if err := r.WriteChrome(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10_000), allocs(100_000)
	if small != large {
		t.Errorf("WriteChrome allocates %.0f times for 10k spans but %.0f for 100k over the same rows", small, large)
	}
}

// BenchmarkWriteChrome exports a full DefaultCapacity ring of mixed
// span kinds, as the end of a traced run does.
func BenchmarkWriteChrome(b *testing.B) {
	r := mixedRecorder(DefaultCapacity, DefaultCapacity+DefaultCapacity/4)
	var out countWriter
	if err := r.WriteChrome(&out); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(out))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WriteChrome(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
