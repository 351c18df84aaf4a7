package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of a traced run. Parent is the ID of the span
// that caused it (0 for the root); all spans of one run share its trace.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spans records spans in memory; write saves them when the run ends.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// add records a finished interval and returns its ID.
func (s *spans) add(name string, parent int, start, end time.Time) int {
	id := len(s.list) + 1
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(s.t0).Nanoseconds(), EndNS: end.Sub(s.t0).Nanoseconds()})
	return id
}

// begin opens a span; the returned function closes it.
func (s *spans) begin(name string, parent int) (id int, end func()) {
	id = s.add(name, parent, time.Now(), time.Now())
	return id, func() { s.list[id-1].EndNS = time.Since(s.t0).Nanoseconds() }
}

// round records a round span with one child span per replica.
func (s *spans) round(parent int, r *round) {
	if len(r.stamps) == 0 {
		return
	}
	id := s.add("round", parent, r.start, r.stamps[len(r.stamps)-1])
	prev := r.start
	for _, t := range r.stamps {
		s.add("replica", id, prev, t)
		prev = t
	}
}

func (s *spans) write(path string) error {
	b, err := json.Marshal(struct {
		Trace string `json:"trace"`
		Spans []span `json:"spans"`
	}{s.t0.UTC().Format(time.RFC3339Nano), s.list})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
