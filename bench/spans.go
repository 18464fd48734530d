package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// benchSpan is one timed interval recorded by the harness around a call
// (or a batch of calls) into a layer. Spans live in bench/, not in the
// program under test: the layers are measured from outside.
type benchSpan struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 = root
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	StartUs  float64 `json:"start_us"`
	EndUs    float64 `json:"end_us"`
	SelfUs   float64 `json:"self_us"`
	// Calls is how many layer calls the span covers (1 for phases).
	Calls int `json:"calls,omitempty"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay one nil check per phase.
type spanLog struct {
	workload string
	t0       time.Time
	spans    []benchSpan
	stack    []int
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, t0: time.Now()}
}

// begin opens a span as a child of the innermost open span.
func (l *spanLog) begin(name string) int {
	if l == nil {
		return 0
	}
	parent := 0
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, benchSpan{
		ID: id, Parent: parent, Name: name, Workload: l.workload,
		StartUs: float64(time.Since(l.t0)) / 1e3,
	})
	l.stack = append(l.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (l *spanLog) end(id, calls int) {
	if l == nil {
		return
	}
	if n := len(l.stack); n == 0 || l.stack[n-1] != id {
		panic("bench: span closed out of order")
	}
	l.stack = l.stack[:len(l.stack)-1]
	sp := &l.spans[id-1]
	sp.EndUs = float64(time.Since(l.t0)) / 1e3
	sp.Calls = calls
}

// do runs fn inside a span.
func (l *spanLog) do(name string, fn func()) {
	id := l.begin(name)
	fn()
	l.end(id, 1)
}

// selfTimes fills SelfUs: a span's duration minus the part of it its
// direct children cover. Children of one parent never overlap (the
// harness is one goroutine), so their durations simply add.
func selfTimes(spans []benchSpan) {
	covered := make(map[int]float64)
	for _, sp := range spans {
		covered[sp.Parent] += sp.EndUs - sp.StartUs
	}
	for i := range spans {
		spans[i].SelfUs = spans[i].EndUs - spans[i].StartUs - covered[spans[i].ID]
	}
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	selfTimes(l.spans)
	sort.SliceStable(l.spans, func(i, j int) bool { return l.spans[i].ID < l.spans[j].ID })
	data, err := json.MarshalIndent(map[string]any{"workload": l.workload, "spans": l.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
