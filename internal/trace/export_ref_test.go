package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The reflection-based encoder writeChrome replaced, with its per-span
// threadKey row naming, kept verbatim as the oracle for the differential
// test: writeChrome must write exactly the bytes refWriteChrome writes
// for any recording.

func refToJSON(sp *Span) spanJSON {
	j := spanJSON{
		Kind: uint8(sp.Kind), Op: sp.Op,
		Start: int64(sp.Start), End: int64(sp.End), Busy: int64(sp.Busy),
		Host: sp.Host, GPU: sp.GPU, Comm: sp.Comm, Rank: sp.Rank, Peer: sp.Peer,
		Channel: sp.Channel, Gen: sp.Gen, Step: sp.Step, Seq: sp.Seq,
		Flow: sp.Flow, Bytes: sp.Bytes, Src: sp.Src, Dst: sp.Dst,
		Label: sp.Label, Route: sp.Route,
	}
	if len(sp.Rates) > 0 {
		j.Rates = make([]rateJSON, len(sp.Rates))
		for i, s := range sp.Rates {
			j.Rates[i] = rateJSON{
				T: int64(s.T), Bps: s.Bps, Bottleneck: s.Bottleneck,
				LinkBps: s.LinkBps, ExtBps: s.ExtBps, CapBps: s.CapBps,
			}
		}
	}
	return j
}

// threadKey names the engine row a span is drawn on.
func threadKey(sp *Span, m *Meta) string {
	switch sp.Kind {
	case KindOp, KindBarrier:
		return fmt.Sprintf("proxy c%d r%d", sp.Comm, sp.Rank)
	case KindStep:
		return fmt.Sprintf("proxy c%d r%d ch%d", sp.Comm, sp.Rank, sp.Channel)
	case KindP2P:
		return fmt.Sprintf("proxy c%d r%d p2p", sp.Comm, sp.Rank)
	case KindCmd:
		return fmt.Sprintf("shim %s c%d r%d", sp.Label, sp.Comm, sp.Rank)
	case KindFlow:
		if sp.Comm != 0 {
			return fmt.Sprintf("flow c%d ch%d r%d>r%d", sp.Comm, sp.Channel, sp.Rank, sp.Peer)
		}
		return fmt.Sprintf("flow %s>%s", nodeName(m, sp.Src), nodeName(m, sp.Dst))
	case KindXfer:
		return fmt.Sprintf("intra nic%d>nic%d", sp.Src, sp.Dst)
	case KindKernel:
		return fmt.Sprintf("gpu%d s%d", sp.GPU, sp.Flow)
	case KindTuner:
		return fmt.Sprintf("tuner c%d", sp.Comm)
	case KindSched:
		if sp.Op == SchedReconfig {
			return "sched policy"
		}
		return fmt.Sprintf("sched job%d", sp.Seq)
	case KindRemediation:
		return "remediation"
	default:
		return "misc"
	}
}

func refEventName(sp *Span) string {
	switch sp.Kind {
	case KindOp:
		return fmt.Sprintf("%s#%d", OpName(sp.Op), sp.Seq)
	case KindStep:
		return fmt.Sprintf("step%d", sp.Step)
	case KindBarrier:
		return "reconfig:" + PhaseName(sp.Op)
	case KindP2P:
		if sp.Label != "" {
			return sp.Label
		}
		return "p2p"
	case KindCmd:
		return fmt.Sprintf("cmd %s#%d", OpName(sp.Op), sp.Seq)
	case KindFlow:
		if sp.Label == "external" {
			return fmt.Sprintf("bg-flow#%d", sp.Flow)
		}
		return fmt.Sprintf("flow#%d", sp.Flow)
	case KindXfer:
		return "xfer"
	case KindKernel:
		if sp.Label != "" {
			return sp.Label
		}
		return "kernel"
	case KindTuner:
		if sp.Label != "" {
			return "tune:" + sp.Label
		}
		return "tuner"
	case KindSched:
		if sp.Label != "" {
			return "sched:" + SchedName(sp.Op) + ":" + sp.Label
		}
		return "sched:" + SchedName(sp.Op)
	case KindRemediation:
		return "heal:" + RemedName(sp.Op)
	default:
		return sp.Kind.String()
	}
}

// refMarshalEvent hand-assembles one trace event line so ts/dur can be
// printed as microsecond floats with stable formatting.
func refMarshalEvent(name, cat, ph string, tsNs, durNs int64, pid, tid int, args any) ([]byte, error) {
	type wire struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat,omitempty"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur,omitempty"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args any     `json:"args,omitempty"`
	}
	return json.Marshal(wire{
		Name: name, Cat: cat, Ph: ph,
		Ts: float64(tsNs) / 1e3, Dur: float64(durNs) / 1e3,
		Pid: pid, Tid: tid, Args: args,
	})
}

// refWriteChrome is the former WriteChrome.
func refWriteChrome(w io.Writer, rec Recording) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	m := &rec.Meta
	fabricPid := len(m.Hosts) + 1

	// First pass: assign thread IDs per (pid, engine key), first-seen.
	type ptKey struct {
		pid int
		key string
	}
	tids := make(map[ptKey]int)
	nextTid := make(map[int]int)
	type rowMeta struct {
		pid, tid int
		name     string
	}
	var rows []rowMeta
	pids := make(map[int]string)
	pids[0] = "sim"
	for i, h := range m.Hosts {
		pids[i+1] = h
	}
	pids[fabricPid] = "fabric"
	for i := range rec.Spans {
		sp := &rec.Spans[i]
		pid := pidOf(sp, m, fabricPid)
		k := ptKey{pid, threadKey(sp, m)}
		if _, ok := tids[k]; !ok {
			nextTid[pid]++
			tids[k] = nextTid[pid]
			rows = append(rows, rowMeta{pid: pid, tid: tids[k], name: k.key})
		}
	}

	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	emit := func(b []byte, err error) error {
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}

	// Metadata rows: process names in pid order, then thread names in
	// assignment order.
	for pid := 0; pid <= fabricPid; pid++ {
		name, ok := pids[pid]
		if !ok {
			continue
		}
		ev, err := refMarshalEvent("process_name", "", "M", 0, 0, pid, 0,
			map[string]string{"name": name})
		if err := emit(ev, err); err != nil {
			return err
		}
	}
	for _, r := range rows {
		ev, err := refMarshalEvent("thread_name", "", "M", 0, 0, r.pid, r.tid,
			map[string]string{"name": r.name})
		if err := emit(ev, err); err != nil {
			return err
		}
	}

	// Span events, in ring (emission) order.
	for i := range rec.Spans {
		sp := &rec.Spans[i]
		pid := pidOf(sp, m, fabricPid)
		tid := tids[ptKey{pid, threadKey(sp, m)}]
		j := refToJSON(sp)
		ev, err := refMarshalEvent(refEventName(sp), sp.Kind.String(), "X",
			int64(sp.Start), int64(sp.End-sp.Start), pid, tid,
			map[string]spanJSON{"s": j})
		if err := emit(ev, err); err != nil {
			return err
		}
	}

	// Trailing metadata record for ReadChrome.
	ev, err := refMarshalEvent("mccs_meta", "", "M", 0, 0, 0, 0,
		metaArgs{Meta: rec.Meta, Dropped: rec.Dropped})
	if err := emit(ev, err); err != nil {
		return err
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
