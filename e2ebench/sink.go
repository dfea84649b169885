package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"os"
	"time"
)

// sinkCapture is the print modules' Env.AlarmWriter. During a tick it only
// copies bytes (timed as a span when asked); rows are parsed after the
// tick, outside the timed interval.
type sinkCapture struct {
	buf     []byte
	spans   bool
	writeNs int64
	writes  int
	bytes   int64
}

func (s *sinkCapture) Write(p []byte) (int, error) {
	if s.spans {
		t0 := time.Now()
		s.buf = append(s.buf, p...)
		s.writeNs += int64(time.Since(t0))
	} else {
		s.buf = append(s.buf, p...)
	}
	s.writes++
	s.bytes += int64(len(p))
	return len(p), nil
}

// sinkRow is one parsed verdict row: "[BB] 2026-01-01 00:01:04
// node=slave07 source=analysis_bb values=[0 12.3]".
type sinkRow struct {
	wb   bool
	node int
	t    int64 // row timestamp, unix seconds
	flag bool
	hash uint64
}

// sinkLog accumulates every row of a run, tick by tick, plus the per-node
// ordering and alarm bookkeeping the checks need.
type sinkLog struct {
	index   map[string]int // node name -> index
	hashes  []uint64       // every row's hash, in emission order
	tickEnd []int          // tickEnd[t] = len(hashes) after tick t
	// corruptRow, when >= 0, flips a byte of that row before hashing: the
	// self-test's stand-in for a program emitting a wrong verdict.
	corruptRow int

	lastT       [2][]int64 // per pipeline, per node: newest row time
	disorder    int        // rows not strictly after their node's previous row
	badRows     int        // rows that do not parse
	holdSum     float64    // Σ (emission time - row time) over rows, seconds
	rows        int
	faultNode   int
	faultAt     time.Time // zero until the fault is injected
	firstAlarm  time.Time // first alarm naming the faulty node
	falseAlarms int
	// prefix is the detection outcome over ticks [0, detectTicks), the
	// part every run has whatever its length.
	prefix detection
}

// detection is how a run's verdicts went for its fault: virtual seconds
// from injection to the first alarm naming the faulty node (-1 if none)
// and the alarm rows naming any other node.
type detection struct {
	TTD         float64 `json:"ttd_s"`
	FalseAlarms int     `json:"false_alarms"`
}

// detectTicks is the tick prefix the detection check covers: warm-up and
// the minimum timed ticks.
const detectTicks = warmTicks + minTimedTicks

func (l *sinkLog) detection() detection {
	d := detection{TTD: -1, FalseAlarms: l.falseAlarms}
	if !l.firstAlarm.IsZero() {
		d.TTD = l.firstAlarm.Sub(l.faultAt).Seconds()
	}
	return d
}

func newSinkLog(names []string, faultNode int) *sinkLog {
	l := &sinkLog{index: make(map[string]int, len(names)), corruptRow: -1, faultNode: faultNode}
	for i, n := range names {
		l.index[n] = i
	}
	for p := range l.lastT {
		l.lastT[p] = make([]int64, len(names))
	}
	return l
}

// consume parses the rows one tick emitted at virtual time now.
func (l *sinkLog) consume(s *sinkCapture, now time.Time) {
	data := s.buf
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			nl = len(data)
		}
		line := data[:nl]
		data = data[min(nl+1, len(data)):]
		if l.corruptRow == len(l.hashes) {
			line = append([]byte(nil), line...)
			line[len(line)-2] ^= 1
		}
		h := fnv.New64a()
		_, _ = h.Write(line)
		l.hashes = append(l.hashes, h.Sum64())
		r, ok := l.parse(line)
		if !ok {
			l.badRows++
			continue
		}
		l.rows++
		p := 0
		if r.wb {
			p = 1
		}
		if r.t <= l.lastT[p][r.node] {
			l.disorder++
		}
		l.lastT[p][r.node] = r.t
		l.holdSum += float64(now.Unix() - r.t)
		if r.flag && !l.faultAt.IsZero() {
			if r.node == l.faultNode {
				if l.firstAlarm.IsZero() {
					l.firstAlarm = now
				}
			} else {
				l.falseAlarms++
			}
		} else if r.flag {
			l.falseAlarms++
		}
	}
	l.tickEnd = append(l.tickEnd, len(l.hashes))
	if len(l.tickEnd) == detectTicks {
		l.prefix = l.detection()
	}
	s.buf = s.buf[:0]
}

// rowsFile is a sink log's rows as the fleet process hands them over.
type rowsFile struct {
	Hashes  []uint64 `json:"hashes"`
	TickEnd []int    `json:"tick_end"`
}

func (l *sinkLog) save(path string) error {
	data, err := json.Marshal(rowsFile{l.hashes, l.tickEnd})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func loadSinkLog(path string) (*sinkLog, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f rowsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	return &sinkLog{hashes: f.Hashes, tickEnd: f.TickEnd}, nil
}

var (
	nodeKey   = []byte(" node=")
	valuesKey = []byte(" values=[")
)

func (l *sinkLog) parse(line []byte) (sinkRow, bool) {
	var r sinkRow
	switch {
	case bytes.HasPrefix(line, []byte("[BB] ")):
	case bytes.HasPrefix(line, []byte("[WB] ")):
		r.wb = true
	default:
		return r, false
	}
	const layout = "2006-01-02 15:04:05"
	if len(line) < 5+len(layout) {
		return r, false
	}
	t, err := time.Parse(layout, string(line[5:5+len(layout)]))
	if err != nil {
		return r, false
	}
	r.t = t.Unix()
	i := bytes.Index(line, nodeKey)
	if i < 0 {
		return r, false
	}
	rest := line[i+len(nodeKey):]
	sp := bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return r, false
	}
	node, ok := l.index[string(rest[:sp])]
	if !ok {
		return r, false
	}
	r.node = node
	j := bytes.Index(line, valuesKey)
	if j < 0 {
		return r, false
	}
	v := line[j+len(valuesKey):]
	r.flag = !(len(v) > 1 && v[0] == '0' && (v[1] == ' ' || v[1] == ']'))
	return r, true
}

// compare counts the rows of a measured run that differ from, are missing
// from, or are extra to the reference, tick by tick over the first ticks.
func compare(got, want *sinkLog, ticks int) (mismatched int) {
	ticks = min(ticks, max(len(got.tickEnd), len(want.tickEnd)))
	span := func(l *sinkLog, t int) []uint64 {
		if t >= len(l.tickEnd) {
			return nil
		}
		lo := 0
		if t > 0 {
			lo = l.tickEnd[t-1]
		}
		return l.hashes[lo:l.tickEnd[t]]
	}
	for t := 0; t < ticks; t++ {
		g, w := span(got, t), span(want, t)
		for i := 0; i < max(len(g), len(w)); i++ {
			if i >= len(g) || i >= len(w) || g[i] != w[i] {
				mismatched++
			}
		}
	}
	return mismatched
}
