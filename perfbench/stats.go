package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: fewer, and the value is one or two outliers, not a tail.
const minTail = 10

// quantile is one percentile of a sample set with the evidence behind it.
type quantile struct {
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	// OK reports whether at least minTail samples lie beyond the
	// percentile, so the value is worth reporting.
	OK bool `json:"ok"`
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank method, with the sample count and whether the tail beyond
// it holds at least minTail samples. xs is not modified.
func percentile(xs []float64, p float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return quantile{Value: s[rank-1], Samples: n, OK: n-rank >= minTail}
}

// median is the middle value of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interval is a half-open [Start, End) stretch of time in nanoseconds.
type interval struct{ Start, End int64 }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other (concurrent store calls under one
// session) and may stick out of the parent; only the union of their
// overlap with the parent counts.
func selfTime(parent interval, children []interval) int64 {
	var cs []interval
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	covered := int64(0)
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			if c.End > cur.End {
				cur.End = c.End
			}
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}

// ops tallies a workload's operations. An operation is one plan taken
// from request to documents. Failed counts operations that errored or
// whose output failed a check; Starved counts plans that ended failed
// because a TDMA slot shorter than one bus transaction starved a job
// until MaxCycles — a known, deterministic simulator defect (see
// NOTES.md) that the benchmark predicts from the plan and reports apart;
// Duplicated counts jobs simulated more than once, a known store.Dedup
// race whose count depends on timing. Both are in failedRatio; only
// Failed is the result's failed.
type ops struct {
	Attempted  int `json:"attempted"`
	Failed     int `json:"failed"`
	Starved    int `json:"starved"`
	Duplicated int `json:"duplicated"`
}

// failedRatio is the share of attempted operations that failed: failed
// ones, starved plans and duplicate simulations alike.
func (o ops) failedRatio() float64 {
	if o.Attempted == 0 {
		return 0
	}
	return float64(o.Failed+o.Starved+o.Duplicated) / float64(o.Attempted)
}

func (o *ops) add(p ops) {
	o.Attempted += p.Attempted
	o.Failed += p.Failed
	o.Starved += p.Starved
	o.Duplicated += p.Duplicated
}

// thinTails lists the percentiles that have fewer than minTail samples
// beyond them, by name.
func thinTails(qs map[string]quantile) []string {
	var out []string
	for name, q := range qs {
		if !q.OK {
			out = append(out, fmt.Sprintf("%s has %d samples, fewer than %d beyond it", name, q.Samples, minTail))
		}
	}
	sort.Strings(out)
	return out
}

// layerOf maps a fully qualified Go function name, as pprof prints it,
// to the benchmark's layer name: the rrbus module for rrbus packages,
// "json", "syscall" and "gc" for the three runtime costs the benchmark
// tracks, and "other" for everything else.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: its shapes may hold '/' and '.'
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "rrbus/internal/"):
		m := strings.TrimPrefix(pkg, "rrbus/internal/")
		if modules[m] {
			return m
		}
		return "other"
	case pkg == "encoding/json":
		return "json"
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "runtime/internal/syscall" ||
		fn == "runtime.futex" || fn == "runtime.epollwait" || fn == "runtime.usleep" ||
		fn == "runtime.nanotime1" || fn == "runtime.write1" || fn == "runtime.read":
		return "syscall"
	case pkg == "runtime" && isGC(strings.TrimPrefix(fn, "runtime.")):
		return "gc"
	}
	return "other"
}

// modules are the rrbus packages the benchmark reports as layers.
var modules = map[string]bool{
	"sim": true, "cpu": true, "cache": true, "bus": true, "mem": true, "statehash": true,
	"core": true, "analytic": true, "scenario": true, "store": true, "report": true,
	"serve": true, "dist": true,
}

// layers lists the profile groups in report order.
var layers = []string{
	"sim", "cpu", "cache", "bus", "mem", "statehash", "core", "analytic", "scenario",
	"store", "report", "serve", "dist", "json", "syscall", "gc",
}

// isGC reports whether a runtime function (name without "runtime.") is
// garbage-collector work: marking, scanning, sweeping, scavenging and
// write barriers. Allocation itself (mallocgc) is charged to its caller's
// layer by neither, so it stays "other".
func isGC(fn string) bool {
	for _, p := range []string{
		"gc", "scan", "markroot", "greyobject", "findObject", "sweep", "bgsweep", "bgscavenge",
		"wbBuf", "(*gcWork)", "(*gcBits)", "(*gcControllerState)", "(*mspan).sweep", "(*sweepLocked)",
		"(*mheap).reclaim", "(*pageAlloc).scavenge", "(*scavengerState)", "spanOf", "heapBits",
		"typePointers", "(*mspan).typePointersOf", "(*mspan).heapBits", "pageIndexOf", "markBits",
		"(*markBits)", "(*mspan).markBitsForIndex", "bulkBarrierPreWrite", "(*wbBuf)",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// profileShares parses the text of `go tool pprof -top` and returns each
// layer's share of all sampled CPU time, in percent, from the flat (self)
// column. Rows pprof drops below its node cutoff are not seen, so shares
// can sum to slightly under 100.
func profileShares(top string) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(top))
	inRows := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "flat ") {
			inRows = true
			continue
		}
		if !inRows || line == "" {
			continue
		}
		// flat flat% sum% cum cum% name... (the name may hold spaces)
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, err
		}
		out[layerOf(strings.Join(f[5:], " "))] += pct
	}
	return out, sc.Err()
}
