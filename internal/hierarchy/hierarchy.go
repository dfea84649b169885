// Package hierarchy defines the wire protocol between a root control node
// and its shard-leader processes (asdf-shardd).
//
// PR 5's in-process sharding plateaus because one process still owns every
// daemon connection and every analysis tick. The hierarchical topology
// promotes shards to separate processes: each leader runs the collection
// plane (managed per-daemon connections, shard sweeps, columnar wire) for a
// contiguous node-index range and serves merged per-tick partials upward;
// the root re-merges partials by node index, so sink output stays
// byte-identical to the single-process configuration.
//
// The leader→root hop is the same pulled columnar stream the daemons serve:
// one delta-encoded row per node per tick, tagged with the node's offset in
// the range. This package holds only the protocol: method names, request
// and response shapes, node-range arithmetic, and the leader accounting
// struct.
// The leader implementation lives in internal/modules (reusing the module
// sources and shard sweeper); the binary is cmd/asdf-shardd.
package hierarchy

import (
	"fmt"
	"strconv"
	"strings"
)

// ServiceLeader is the RPC service name an asdf-shardd leader announces in
// its hello.
const ServiceLeader = "asdf_shardd"

// RPC methods served by a leader.
const (
	// MethodStatus returns the leader's accounting snapshot without
	// triggering a sweep.
	MethodStatus = "hier.status"
	// MethodSadcStream runs one collection sweep over the leader's node
	// range per pull: one row per node in a single narrow group whose
	// leading NodeIndexColumn column carries the node's offset within the
	// range. A node that failed this tick simply has no row.
	MethodSadcStream = "hier.sadc"
	// MethodLogStream fetches newly finalized state vectors from every
	// node in the range per pull: one row per per-second vector, tagged
	// the same way; a quiet tick is an empty frame.
	MethodLogStream = "hier.hlog"
)

// NodeIndexColumn is the leading column of every partial-stream row: the
// row's node offset within the leader's range. Keeping the node in a row
// column — rather than one schema group per node — keeps decoded rows
// O(metric width) regardless of range size.
const NodeIndexColumn = "__node_index"

// Range is a half-open node-index range [Start, End) delegated to one
// leader, in the root instance's node-list order.
type Range struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Len is the number of nodes in the range.
func (r Range) Len() int { return r.End - r.Start }

// Contains reports whether node index i falls in the range.
func (r Range) Contains(i int) bool { return i >= r.Start && i < r.End }

// String renders the range in the configuration syntax, e.g. "0-64".
func (r Range) String() string {
	return strconv.Itoa(r.Start) + "-" + strconv.Itoa(r.End)
}

// ParseRange parses one "start-end" half-open range.
func ParseRange(s string) (Range, error) {
	lo, hi, ok := strings.Cut(strings.TrimSpace(s), "-")
	if !ok {
		return Range{}, fmt.Errorf("hierarchy: range %q: want start-end", s)
	}
	start, err := strconv.Atoi(strings.TrimSpace(lo))
	if err != nil {
		return Range{}, fmt.Errorf("hierarchy: range %q: %v", s, err)
	}
	end, err := strconv.Atoi(strings.TrimSpace(hi))
	if err != nil {
		return Range{}, fmt.Errorf("hierarchy: range %q: %v", s, err)
	}
	r := Range{Start: start, End: end}
	if start < 0 || end <= start {
		return Range{}, fmt.Errorf("hierarchy: range %q: want 0 <= start < end", s)
	}
	return r, nil
}

// ParseRanges parses a comma-separated list of half-open ranges
// ("0-64,64-128") and rejects overlaps. Ranges need not cover every node:
// undelegated indexes stay with the caller. n bounds the valid index space;
// n < 0 skips the bound check (for callers that validate later).
func ParseRanges(s string, n int) ([]Range, error) {
	var out []Range
	for _, part := range strings.Split(s, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		r, err := ParseRange(part)
		if err != nil {
			return nil, err
		}
		if n >= 0 && r.End > n {
			return nil, fmt.Errorf("hierarchy: range %s exceeds %d nodes", r, n)
		}
		for _, prev := range out {
			if r.Start < prev.End && prev.Start < r.End {
				return nil, fmt.Errorf("hierarchy: ranges %s and %s overlap", prev, r)
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// Stats is a leader's cumulative accounting, served on MethodStatus.
type Stats struct {
	// Nodes is the size of the leader's configured node range.
	Nodes int `json:"nodes"`
	// Sweeps counts completed sweeps since the leader booted. A root that
	// sees this regress knows the leader restarted.
	Sweeps uint64 `json:"sweeps"`
	// NodeErrors counts failed per-node fetches across all sweeps.
	NodeErrors uint64 `json:"node_errors"`
	// OpenBreakers is the current count of leader→daemon circuit breakers
	// standing open.
	OpenBreakers int `json:"open_breakers"`
}

// StatusResponse is the MethodStatus reply.
type StatusResponse struct {
	// Name is the leader's configured name.
	Name string `json:"name"`
	// Sadc and Log carry the per-plane accounting; nil when the leader
	// does not run that plane.
	Sadc *Stats `json:"sadc,omitempty"`
	Log  *Stats `json:"hadoop_log,omitempty"`
}

// StreamRequest opens a columnar sweep stream (MethodSadcStream or
// MethodLogStream). Nodes echoes the root's node names for the leader's
// range so the schema the leader builds matches the root's expectation
// column for column; a mismatch with the leader's own configuration is an
// open-time error rather than silent misattribution.
type StreamRequest struct {
	Nodes []string `json:"nodes"`
}
