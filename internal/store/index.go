package store

import (
	"bytes"
	"slices"
)

// index maps job hashes to records. It is kept compact, because a handle
// holds one for as long as it is open: a sorted slice of entries, 48
// bytes each and sized exactly, plus a small map of the keys added since
// the slice was last rebuilt. A Go map of every key would cost about
// twice as much.
type index struct {
	base    []slot      // sorted by key, one entry a key; n == 0 marks a removed key
	removed int         // removed entries in base
	recent  map[key]loc // keys not in base, added since the last merge
}

type slot struct {
	k  key
	at loc
}

// mergeMin is the smallest number of recent keys merged into base at
// once; above it, an eighth of base.
const mergeMin = 256

func (x *index) find(k key) (int, bool) {
	return slices.BinarySearchFunc(x.base, k, func(e slot, k key) int { return bytes.Compare(e.k[:], k[:]) })
}

func (x *index) get(k key) (loc, bool) {
	if at, ok := x.recent[k]; ok {
		return at, true
	}
	if i, ok := x.find(k); ok && x.base[i].at.n != 0 {
		return x.base[i].at, true
	}
	return loc{}, false
}

// set points k at a record and returns where it pointed before.
func (x *index) set(k key, at loc) (loc, bool) {
	if old, ok := x.recent[k]; ok {
		x.recent[k] = at
		return old, true
	}
	if i, ok := x.find(k); ok {
		old := x.base[i].at
		x.base[i].at = at
		if old.n == 0 {
			x.removed--
			return loc{}, false
		}
		return old, true
	}
	if x.recent == nil {
		x.recent = map[key]loc{}
	}
	x.recent[k] = at
	if len(x.recent) >= max(mergeMin, len(x.base)/8) {
		x.merge()
		clear(x.recent)
	}
	return loc{}, false
}

func (x *index) del(k key) {
	if _, ok := x.recent[k]; ok {
		delete(x.recent, k)
		return
	}
	if i, ok := x.find(k); ok && x.base[i].at.n != 0 {
		x.base[i].at = loc{}
		x.removed++
	}
}

func (x *index) len() int { return len(x.base) - x.removed + len(x.recent) }

// each calls fn for every key, in no particular order.
func (x *index) each(fn func(key, loc)) {
	for _, e := range x.base {
		if e.at.n != 0 {
			fn(e.k, e.at)
		}
	}
	for k, at := range x.recent {
		fn(k, at)
	}
}

// dropLog removes every key whose record is in log li.
func (x *index) dropLog(li int) {
	for i, e := range x.base {
		if e.at.n != 0 && int(e.at.log) == li {
			x.base[i].at = loc{}
			x.removed++
		}
	}
	for k, at := range x.recent {
		if int(at.log) == li {
			delete(x.recent, k)
		}
	}
}

// flush merges the recent keys into base and lets the map go, so an
// index that is only read holds nothing but the exact-size slice.
func (x *index) flush() {
	if len(x.recent) > 0 || x.removed > 0 {
		x.merge()
	}
	x.recent = nil
}

// merge rebuilds base from its live entries and the recent keys.
func (x *index) merge() {
	add := make([]slot, 0, len(x.recent))
	for k, at := range x.recent {
		add = append(add, slot{k, at})
	}
	slices.SortFunc(add, func(a, b slot) int { return bytes.Compare(a.k[:], b.k[:]) })
	out := make([]slot, 0, x.len())
	i := 0
	for _, e := range x.base {
		if e.at.n == 0 {
			continue
		}
		for i < len(add) && bytes.Compare(add[i].k[:], e.k[:]) < 0 {
			out = append(out, add[i])
			i++
		}
		out = append(out, e)
	}
	x.base = append(out, add[i:]...)
	x.removed = 0
}
