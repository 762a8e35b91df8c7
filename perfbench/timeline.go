package main

// Interval arithmetic for the self-time table. An interval list is a
// flattened, sorted, disjoint sequence of [start, end) pairs in ns.

// clip intersects two interval lists.
func clip(a, b []int64) []int64 {
	var out []int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i], b[j]), min(a[i+1], b[j+1])
		if lo < hi {
			out = append(out, lo, hi)
		}
		if a[i+1] < b[j+1] {
			i += 2
		} else {
			j += 2
		}
	}
	return out
}

// length sums an interval list's durations.
func length(a []int64) int64 {
	var n int64
	for i := 0; i < len(a); i += 2 {
		n += a[i+1] - a[i]
	}
	return n
}

// selfTimes splits the round window [r0, r1) over a chain of nested
// layers. Each layer's busy time is clipped to its parent's, so a span
// counts only while its caller is waiting on it (background work, such
// as a prefetch running while the trainer computes, is not on the
// round's blocking path). self[0] is the time no chain layer was busy;
// self[i+1] is the time chain[i] was the innermost busy layer. The
// entries sum to r1 − r0 exactly.
func selfTimes(r0, r1 int64, chain [][]int64) []int64 {
	self := make([]int64, len(chain)+1)
	parent := []int64{r0, r1}
	prev := r1 - r0
	for i, ivs := range chain {
		parent = clip(parent, ivs)
		cur := length(parent)
		self[i] = prev - cur
		prev = cur
	}
	self[len(chain)] = prev
	return self
}
