package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"time"
)

// span is one timed interval around a call into the program under test.
// Parent indexes the enclosing span (-1 at the root); Step is the optimizer
// step or served batch the span belongs to (0 outside any).
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Parent     int
	Step       int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory from the single goroutine that drives a
// mirror loop; nothing is written until the run ends. A nil tracer records
// nothing, so the same loop runs untraced.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of spans begun and not yet ended
	step  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Step: t.step, Start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("benchmark: span %d ended out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = now
}

// nextStep advances the step id that later spans carry.
func (t *tracer) nextStep() {
	if t != nil {
		t.step++
	}
}

// selfTimes returns each span's duration minus the part its children cover.
// Children of one parent never overlap (one goroutine, strict nesting), so
// the covered part is the sum of their durations.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// named returns the durations in milliseconds of every span called name.
func named(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// coverage is the share of the root span's wall that lies inside leaf spans
// — calls into the program — and not in the loop's own glue.
func coverage(spans []span, root int) float64 {
	hasChild := make([]bool, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
		}
	}
	var leaf time.Duration
	for i, s := range spans {
		if !hasChild[i] && i != root {
			leaf += s.dur()
		}
	}
	return float64(leaf) / float64(spans[root].dur())
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), which chrome://tracing and Perfetto open.
func writeChrome(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"step\":%d,\"parent\":%d}}",
			strconv.Quote(s.Name), us(s.Start), us(s.dur()), s.Step, s.Parent)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
