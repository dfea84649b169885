package hierarchy

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseRanges(t *testing.T) {
	got, err := ParseRanges("0-4, 4-8 ,12-16", 16)
	if err != nil {
		t.Fatal(err)
	}
	want := []Range{{0, 4}, {4, 8}, {12, 16}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if got[0].Len() != 4 || !got[0].Contains(3) || got[0].Contains(4) {
		t.Fatalf("range arithmetic wrong: %v", got[0])
	}
	if got[2].String() != "12-16" {
		t.Fatalf("String: got %q", got[2].String())
	}
}

func TestParseRangesErrors(t *testing.T) {
	for _, tc := range []struct {
		in string
		n  int
	}{
		{"0-4,2-6", 8}, // overlap
		{"4-4", 8},     // empty
		{"4-2", 8},     // inverted
		{"-1-4", 8},    // negative
		{"0-9", 8},     // exceeds node count
		{"abc", 8},     // not a range
		{"0-x", 8},     // bad end
		{"0-4,0-4", 8}, // duplicate
		{"3-5,0-4", 8}, // overlap, reversed order
	} {
		if _, err := ParseRanges(tc.in, tc.n); err == nil {
			t.Errorf("ParseRanges(%q, %d): want error", tc.in, tc.n)
		}
	}
	// Unbounded parse skips the node-count check only.
	if _, err := ParseRanges("0-1000000", -1); err != nil {
		t.Errorf("unbounded parse: %v", err)
	}
}

// FuzzParseRanges holds ParseRanges to its contract on arbitrary input:
// never a panic; on success every range is non-empty, in bounds and
// disjoint from the others, and the ranges render back (String, joined by
// commas) to text that parses to the same ranges.
func FuzzParseRanges(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string, n int) {
		got, err := ParseRanges(s, n)
		if err != nil {
			return
		}
		parts := make([]string, len(got))
		for i, r := range got {
			if r.Start < 0 || r.End <= r.Start || (n >= 0 && r.End > n) {
				t.Fatalf("ParseRanges(%q, %d): invalid range %v", s, n, r)
			}
			for _, prev := range got[:i] {
				if r.Start < prev.End && prev.Start < r.End {
					t.Fatalf("ParseRanges(%q, %d): %v overlaps %v", s, n, r, prev)
				}
			}
			parts[i] = r.String()
		}
		again, err := ParseRanges(strings.Join(parts, ","), n)
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("ParseRanges(%q, %d) = %v does not round-trip: %v, %v", s, n, got, again, err)
		}
	})
}
