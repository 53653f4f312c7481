package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"mccs/internal/sim"
)

// Chrome trace-event export (the JSON array format understood by
// chrome://tracing and https://ui.perfetto.dev). Layout: one process
// row per host (plus one for the switch fabric), one thread row per
// engine — a proxy runner, a shim frontend, a transport connection, a
// GPU stream. Every "X" event embeds the full machine-readable span
// under args.s, so ReadChrome can reconstruct the exact Recording and
// cmd/mccs-trace can post-process a file without access to the run.
//
// Output is byte-deterministic: events are written in ring order,
// thread IDs are assigned first-seen, and encoding/json sorts the map
// keys of the trailing metadata record.

// opNames mirrors the collective.Op iota order. Kept here (rather than
// importing the collective package) so trace stays dependency-free.
var opNames = [...]string{"AllReduce", "AllGather", "ReduceScatter", "Broadcast", "Reduce"}

// OpName returns the printable name of a collective op code.
func OpName(code int32) string {
	if code >= 0 && int(code) < len(opNames) {
		return opNames[code]
	}
	return fmt.Sprintf("op%d", code)
}

type rateJSON struct {
	T          int64   `json:"t"`
	Bps        float64 `json:"bps"`
	Bottleneck int32   `json:"bl"`
	LinkBps    float64 `json:"lr"`
	ExtBps     float64 `json:"xr"`
	CapBps     float64 `json:"cap"`
}

type spanJSON struct {
	Kind    uint8      `json:"k"`
	Op      int32      `json:"op"`
	Start   int64      `json:"b"`
	End     int64      `json:"e"`
	Busy    int64      `json:"bz,omitempty"`
	Host    int32      `json:"h"`
	GPU     int32      `json:"g"`
	Comm    int32      `json:"c"`
	Rank    int32      `json:"r"`
	Peer    int32      `json:"p"`
	Channel int32      `json:"ch"`
	Gen     int32      `json:"gen"`
	Step    int32      `json:"st"`
	Seq     uint64     `json:"q"`
	Flow    int64      `json:"f"`
	Bytes   int64      `json:"n"`
	Src     int32      `json:"src"`
	Dst     int32      `json:"dst"`
	Label   string     `json:"l,omitempty"`
	Route   []int32    `json:"rt,omitempty"`
	Rates   []rateJSON `json:"rs,omitempty"`
}

func fromJSON(j *spanJSON) Span {
	sp := Span{
		Kind: Kind(j.Kind), Op: j.Op,
		Start: sim.Time(j.Start), End: sim.Time(j.End), Busy: sim.Duration(j.Busy),
		Host: j.Host, GPU: j.GPU, Comm: j.Comm, Rank: j.Rank, Peer: j.Peer,
		Channel: j.Channel, Gen: j.Gen, Step: j.Step, Seq: j.Seq,
		Flow: j.Flow, Bytes: j.Bytes, Src: j.Src, Dst: j.Dst,
		Label: j.Label, Route: j.Route,
	}
	if len(j.Rates) > 0 {
		sp.Rates = make([]RateSample, len(j.Rates))
		for i, s := range j.Rates {
			sp.Rates[i] = RateSample{
				T: sim.Time(s.T), Bps: s.Bps, Bottleneck: s.Bottleneck,
				LinkBps: s.LinkBps, ExtBps: s.ExtBps, CapBps: s.CapBps,
			}
		}
	}
	return sp
}

type metaArgs struct {
	Meta    Meta   `json:"meta"`
	Dropped uint64 `json:"dropped"`
}

// pidOf resolves which process row a span belongs to: its host row when
// the host is known (directly or via GPU/node metadata), else the
// fabric row for flows, else pid 0 ("sim").
func pidOf(sp *Span, m *Meta, fabricPid int) int {
	h := sp.Host
	if h < 0 {
		switch sp.Kind {
		case KindFlow:
			if int(sp.Src) < len(m.NodeHost) && sp.Src >= 0 {
				h = m.NodeHost[sp.Src]
			}
		case KindKernel:
			if int(sp.GPU) < len(m.GPUHost) && sp.GPU >= 0 {
				h = m.GPUHost[sp.GPU]
			}
		}
	}
	if h >= 0 && int(h) < len(m.Hosts) {
		return int(h) + 1
	}
	if sp.Kind == KindFlow {
		return fabricPid
	}
	return 0
}

func nodeName(m *Meta, n int32) string {
	if n >= 0 && int(n) < len(m.NodeNames) && m.NodeNames[n] != "" {
		return m.NodeNames[n]
	}
	return fmt.Sprintf("n%d", n)
}

// Export cost. WriteChrome runs at the end of every traced run and for
// every failing chaos seed, over rings of up to DefaultCapacity spans, so
// span events are encoded by hand into one reused buffer rather than
// through encoding/json reflection. The bytes are exactly those
// encoding/json writes for the wire layout (export_ref_test.go keeps
// that encoder as the oracle): fields in spanJSON order with its
// omitempty rules, floats formatted as encoding/json formats them, and
// strings HTML-escaped. Thread rows are looked up by a struct key, so a
// row's name is formatted once per new row, not once per span.

// flushAt is the buffered size at which encoded events are handed to the
// writer.
const flushAt = 1 << 16

// rowKey identifies the engine row a span is drawn on. Spans sharing a
// key share a thread row; interval nesting within a row is what makes
// the flame view readable, so keys separate anything that can overlap
// (channels, streams, individual connections). rowKeyOf picks the fields
// per kind and threadName names the row from the key alone.
type rowKey struct {
	pid        int
	kind       Kind
	a, b, c, d int32
	n          int64
	label      string
}

func rowKeyOf(sp *Span, pid int) rowKey {
	k := rowKey{pid: pid, kind: sp.Kind}
	switch sp.Kind {
	case KindOp, KindBarrier, KindP2P:
		k.a, k.b = sp.Comm, sp.Rank
	case KindStep:
		k.a, k.b, k.c = sp.Comm, sp.Rank, sp.Channel
	case KindCmd:
		k.a, k.b, k.label = sp.Comm, sp.Rank, sp.Label
	case KindFlow:
		k.a = sp.Comm
		if sp.Comm != 0 {
			k.b, k.c, k.d = sp.Channel, sp.Rank, sp.Peer
		} else {
			k.b, k.c = sp.Src, sp.Dst
		}
	case KindXfer:
		k.b, k.c = sp.Src, sp.Dst
	case KindKernel:
		k.a, k.n = sp.GPU, sp.Flow
	case KindTuner:
		k.a = sp.Comm
	case KindSched:
		if sp.Op == SchedReconfig {
			k.a = 1
		} else {
			k.n = int64(sp.Seq)
		}
	}
	return k
}

// threadName is the display name of k's row.
func threadName(k rowKey, m *Meta) string {
	switch k.kind {
	case KindOp, KindBarrier:
		return fmt.Sprintf("proxy c%d r%d", k.a, k.b)
	case KindStep:
		return fmt.Sprintf("proxy c%d r%d ch%d", k.a, k.b, k.c)
	case KindP2P:
		return fmt.Sprintf("proxy c%d r%d p2p", k.a, k.b)
	case KindCmd:
		return fmt.Sprintf("shim %s c%d r%d", k.label, k.a, k.b)
	case KindFlow:
		if k.a != 0 {
			return fmt.Sprintf("flow c%d ch%d r%d>r%d", k.a, k.b, k.c, k.d)
		}
		return fmt.Sprintf("flow %s>%s", nodeName(m, k.b), nodeName(m, k.c))
	case KindXfer:
		return fmt.Sprintf("intra nic%d>nic%d", k.b, k.c)
	case KindKernel:
		return fmt.Sprintf("gpu%d s%d", k.a, k.n)
	case KindTuner:
		return fmt.Sprintf("tuner c%d", k.a)
	case KindSched:
		if k.a == 1 {
			return "sched policy"
		}
		return fmt.Sprintf("sched job%d", uint64(k.n))
	case KindRemediation:
		return "remediation"
	default:
		return "misc"
	}
}

// WriteChrome streams the held spans, oldest-first, as Chrome
// trace-event JSON without copying the ring. The output is
// byte-identical for identical recordings.
func (r *Recorder) WriteChrome(w io.Writer) error {
	if r == nil {
		return writeChrome(w, &Meta{}, 0, nil, nil)
	}
	return writeChrome(w, &r.meta, r.Dropped(), r.buf[r.head:], r.buf[:r.head])
}

// writeChrome exports the spans of older then newer.
func writeChrome(w io.Writer, m *Meta, dropped uint64, older, newer []Span) error {
	fabricPid := len(m.Hosts) + 1
	halves := [2][]Span{older, newer}

	// First pass: assign thread IDs per (pid, row name), first-seen.
	// Distinct keys that name the same row share it.
	type row struct {
		pid  int
		name string
	}
	byKey := make(map[rowKey]int32)
	byName := make(map[row]int32)
	nextTid := make([]int32, fabricPid+1)
	var rows []row
	tids := make([]int32, 0, len(older)+len(newer))
	for _, spans := range halves {
		for i := range spans {
			sp := &spans[i]
			pid := pidOf(sp, m, fabricPid)
			k := rowKeyOf(sp, pid)
			tid, ok := byKey[k]
			if !ok {
				r := row{pid, threadName(k, m)}
				if tid, ok = byName[r]; !ok {
					nextTid[pid]++
					tid = nextTid[pid]
					byName[r] = tid
					rows = append(rows, r)
				}
				byKey[k] = tid
			}
			tids = append(tids, tid)
		}
	}

	e := chromeEncoder{w: w, buf: make([]byte, 0, 2*flushAt)}
	e.buf = append(e.buf, "[\n"...)

	// Metadata rows: process names in pid order, then thread names in
	// assignment order.
	e.nameRow("process_name", 0, 0, "sim")
	for i, h := range m.Hosts {
		e.nameRow("process_name", i+1, 0, h)
	}
	e.nameRow("process_name", fabricPid, 0, "fabric")
	for _, r := range rows {
		e.nameRow("thread_name", r.pid, byName[r], r.name)
	}

	// Span events, in ring (emission) order.
	j := 0
	for _, spans := range halves {
		for i := range spans {
			if e.err != nil {
				return e.err
			}
			sp := &spans[i]
			e.span(sp, pidOf(sp, m, fabricPid), tids[j])
			j++
		}
	}

	// Trailing metadata record for ReadChrome.
	args, err := json.Marshal(metaArgs{Meta: *m, Dropped: dropped})
	if err != nil {
		return err
	}
	e.next()
	e.buf = append(e.buf, `{"name":"mccs_meta","ph":"M","ts":0,"pid":0,"tid":0,"args":`...)
	e.buf = append(append(e.buf, args...), '}')
	e.buf = append(e.buf, "\n]\n"...)
	e.flush()
	return e.err
}

// chromeEncoder appends trace events to buf and hands it to w every
// flushAt bytes. The first error (a write failure or a non-finite rate)
// sticks: later flushes write nothing, and writeChrome stops at the next
// span and returns it.
type chromeEncoder struct {
	w     io.Writer
	buf   []byte
	err   error
	wrote bool // an event has been started, so the next needs a separator
}

// next flushes a full buffer and starts a new event.
func (e *chromeEncoder) next() {
	if len(e.buf) >= flushAt {
		e.flush()
	}
	if e.wrote {
		e.buf = append(e.buf, ",\n"...)
	}
	e.wrote = true
}

func (e *chromeEncoder) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// nameRow writes a process_name or thread_name metadata event.
func (e *chromeEncoder) nameRow(kind string, pid int, tid int32, name string) {
	e.next()
	b := append(e.buf, `{"name":"`...)
	b = append(b, kind...)
	b = append(b, `","ph":"M","ts":0,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"args":{"name":"`...)
	b = appendString(b, name)
	e.buf = append(b, `"}}`...)
}

// span writes one "X" event embedding the full span under args.s.
func (e *chromeEncoder) span(sp *Span, pid int, tid int32) {
	e.next()
	b := append(e.buf, `{"name":"`...)
	b = appendEventName(b, sp)
	b = append(b, `","cat":"`...)
	b = append(b, sp.Kind.String()...)
	b = append(b, `","ph":"X","ts":`...)
	b = e.float(b, float64(sp.Start)/1e3)
	if dur := int64(sp.End - sp.Start); dur != 0 {
		b = append(b, `,"dur":`...)
		b = e.float(b, float64(dur)/1e3)
	}
	b = appendInt(b, `,"pid":`, int64(pid))
	b = appendInt(b, `,"tid":`, int64(tid))
	b = appendInt(b, `,"args":{"s":{"k":`, int64(sp.Kind))
	b = appendInt(b, `,"op":`, int64(sp.Op))
	b = appendInt(b, `,"b":`, int64(sp.Start))
	b = appendInt(b, `,"e":`, int64(sp.End))
	if sp.Busy != 0 {
		b = appendInt(b, `,"bz":`, int64(sp.Busy))
	}
	b = appendInt(b, `,"h":`, int64(sp.Host))
	b = appendInt(b, `,"g":`, int64(sp.GPU))
	b = appendInt(b, `,"c":`, int64(sp.Comm))
	b = appendInt(b, `,"r":`, int64(sp.Rank))
	b = appendInt(b, `,"p":`, int64(sp.Peer))
	b = appendInt(b, `,"ch":`, int64(sp.Channel))
	b = appendInt(b, `,"gen":`, int64(sp.Gen))
	b = appendInt(b, `,"st":`, int64(sp.Step))
	b = strconv.AppendUint(append(b, `,"q":`...), sp.Seq, 10)
	b = appendInt(b, `,"f":`, sp.Flow)
	b = appendInt(b, `,"n":`, sp.Bytes)
	b = appendInt(b, `,"src":`, int64(sp.Src))
	b = appendInt(b, `,"dst":`, int64(sp.Dst))
	if sp.Label != "" {
		b = append(b, `,"l":"`...)
		b = append(appendString(b, sp.Label), '"')
	}
	if len(sp.Route) > 0 {
		b = append(b, `,"rt":[`...)
		for i, l := range sp.Route {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(l), 10)
		}
		b = append(b, ']')
	}
	if len(sp.Rates) > 0 {
		b = append(b, `,"rs":[`...)
		for i := range sp.Rates {
			s := &sp.Rates[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = appendInt(b, `{"t":`, int64(s.T))
			b = e.float(append(b, `,"bps":`...), s.Bps)
			b = appendInt(b, `,"bl":`, int64(s.Bottleneck))
			b = e.float(append(b, `,"lr":`...), s.LinkBps)
			b = e.float(append(b, `,"xr":`...), s.ExtBps)
			b = e.float(append(b, `,"cap":`...), s.CapBps)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	e.buf = append(b, "}}}"...)
}

func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// float appends f as encoding/json formats a float64: shortest 'f'
// form, switching to 'e' below 1e-6 and from 1e21 in magnitude, with a
// single-digit negative exponent written without its leading zero.
// NaN and ±Inf are not JSON; they record encoding/json's error.
func (e *chromeEncoder) float(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			_, e.err = json.Marshal(f)
		}
		return b
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s JSON-escaped, without quotes. Plain printable
// ASCII is copied as is; anything encoding/json would escape or check
// (control bytes, quote, backslash, <, >, &, non-ASCII) goes through
// encoding/json itself. Escaping is per character, so a name may be
// appended in pieces split at ASCII bytes.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q[1:len(q)-1]...)
		}
	}
	return append(b, s...)
}

// appendEventName appends the span's display name, JSON-escaped.
func appendEventName(b []byte, sp *Span) []byte {
	switch sp.Kind {
	case KindOp:
		return appendOpSeq(b, sp)
	case KindStep:
		return strconv.AppendInt(append(b, "step"...), int64(sp.Step), 10)
	case KindBarrier:
		return append(append(b, "reconfig:"...), PhaseName(sp.Op)...)
	case KindP2P:
		if sp.Label != "" {
			return appendString(b, sp.Label)
		}
		return append(b, "p2p"...)
	case KindCmd:
		return appendOpSeq(append(b, "cmd "...), sp)
	case KindFlow:
		if sp.Label == "external" {
			b = append(b, "bg-"...)
		}
		return strconv.AppendInt(append(b, "flow#"...), sp.Flow, 10)
	case KindXfer:
		return append(b, "xfer"...)
	case KindKernel:
		if sp.Label != "" {
			return appendString(b, sp.Label)
		}
		return append(b, "kernel"...)
	case KindTuner:
		if sp.Label != "" {
			return appendString(append(b, "tune:"...), sp.Label)
		}
		return append(b, "tuner"...)
	case KindSched:
		b = append(append(b, "sched:"...), SchedName(sp.Op)...)
		if sp.Label != "" {
			b = appendString(append(b, ':'), sp.Label)
		}
		return b
	case KindRemediation:
		return append(append(b, "heal:"...), RemedName(sp.Op)...)
	default:
		return append(b, sp.Kind.String()...)
	}
}

// appendOpSeq appends "<op name>#<seq>".
func appendOpSeq(b []byte, sp *Span) []byte {
	if sp.Op >= 0 && int(sp.Op) < len(opNames) {
		b = append(b, opNames[sp.Op]...)
	} else {
		b = strconv.AppendInt(append(b, "op"...), int64(sp.Op), 10)
	}
	return strconv.AppendUint(append(b, '#'), sp.Seq, 10)
}

// ReadChrome parses a file written by (*Recorder).WriteChrome back into a
// Recording. Events are decoded one at a time, so the file is never
// held in memory twice. Events without an embedded span (metadata rows)
// are skipped; the trailing mccs_meta record restores the topology.
func ReadChrome(r io.Reader) (Recording, error) {
	dec := json.NewDecoder(r)
	if tok, err := dec.Token(); err != nil {
		return Recording{}, fmt.Errorf("trace: parsing chrome json: %w", err)
	} else if tok != json.Delim('[') {
		return Recording{}, fmt.Errorf("trace: parsing chrome json: want an array of events, got %v", tok)
	}
	var rec Recording
	for dec.More() {
		var ev struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args struct {
				S       *spanJSON `json:"s"`
				Meta    *Meta     `json:"meta"`
				Dropped uint64    `json:"dropped"`
			} `json:"args"`
		}
		if err := dec.Decode(&ev); err != nil {
			return Recording{}, fmt.Errorf("trace: parsing event: %w", err)
		}
		switch {
		case ev.Ph == "X" && ev.Args.S != nil:
			rec.Spans = append(rec.Spans, fromJSON(ev.Args.S))
		case ev.Name == "mccs_meta":
			if ev.Args.Meta != nil {
				rec.Meta = *ev.Args.Meta
			}
			rec.Dropped = ev.Args.Dropped
		}
	}
	if _, err := dec.Token(); err != nil {
		return Recording{}, fmt.Errorf("trace: parsing chrome json: %w", err)
	}
	return rec, nil
}
