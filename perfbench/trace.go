package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Fine-grained callbacks are not spans: each is kept as a call count plus
// summed busy time on the span that encloses it.
const (
	kTick      = iota // policy OnTick that made no agent decision
	kCallback         // OnArrival / OnDispatch / OnComplete of non-baseline policies
	kBaseline         // ReTail and Gemini OnArrival / OnDispatch (their predictors)
	kDecide           // OnTick that advanced the agent's step count
	kPick             // balancer Pick
	kShardTick        // per-shard policy OnTick inside a fleet epoch
	nKinds
)

var kindNames = [nKinds]string{"tick", "callback", "baseline", "decide", "pick", "shard_tick"}

// probe accumulates one goroutine's callback counts and busy time until a
// span takes them over.
type probe struct {
	calls [nKinds]int64
	busy  [nKinds]int64 // nanoseconds
}

func (p *probe) add(kind int, ns int64) {
	p.calls[kind]++
	p.busy[kind] += ns
}

// span is one coarse unit of work: an episode, segment, decision, epoch or
// load step. Spans of one unit (episode, campaign, load step) share Unit.
type span struct {
	Name   string         `json:"name"`
	ID     int32          `json:"id"`
	Parent int32          `json:"parent"` // -1 for a root span
	Unit   int32          `json:"unit"`
	Start  int64          `json:"start_ns"` // since the tracer's epoch
	End    int64          `json:"end_ns"`
	Calls  [nKinds]int64  `json:"calls"`
	Busy   [nKinds]int64  `json:"busy_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer holds spans in memory for the whole run; a disabled tracer records
// nothing and costs one branch per call.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int32 // stack of open span ids
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string, unit int32) int32 {
	if !t.on {
		return -1
	}
	return t.beginAt(name, unit, t.now())
}

func (t *tracer) beginAt(name string, unit int32, start int64) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Unit: unit, Start: start})
	t.open = append(t.open, id)
	return id
}

// end closes span id (which must be the innermost open one) and moves the
// given probes' counts onto it.
func (t *tracer) end(id int32, probes ...*probe) {
	if !t.on {
		return
	}
	t.endAt(id, t.now(), probes...)
}

func (t *tracer) endAt(id int32, at int64, probes ...*probe) {
	s := &t.spans[id]
	s.End = at
	for _, p := range probes {
		for k := 0; k < nKinds; k++ {
			s.Calls[k] += p.calls[k]
			s.Busy[k] += p.busy[k]
		}
		*p = probe{}
	}
	t.open = t.open[:len(t.open)-1]
}

// attr attaches a value to span id.
func (t *tracer) attr(id int32, key string, v any) {
	if !t.on {
		return
	}
	s := &t.spans[id]
	if s.Attrs == nil {
		s.Attrs = map[string]any{}
	}
	s.Attrs[key] = v
}

// named returns the spans called name.
func (t *tracer) named(name string) []*span {
	var out []*span
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, &t.spans[i])
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Children may overlap each other; an instant covered by
// several children counts once.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, c := range kids[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		for j, v := range iv {
			if j == 0 || v[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = v[0], v[1]
			} else if v[1] > curHi {
				curHi = v[1]
			}
		}
		covered += curHi - curLo
		out[i] = s.dur() - covered
	}
	return out
}

// writeFile writes the spans, with their self times, as one JSON document.
func (t *tracer) writeFile(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string         `json:"workload"`
		Seed     int64          `json:"seed"`
		Kinds    [nKinds]string `json:"kinds"`
		Spans    []span         `json:"spans"`
		SelfNS   []int64        `json:"self_ns"`
	}{workload, seed, kindNames, t.spans, selfTimes(t.spans)}
	b, err := json.Marshal(&doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
