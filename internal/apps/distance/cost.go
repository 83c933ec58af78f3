package distance

import "choco/internal/core"

// Cost is the analytic operation/traffic model of one distance query
// under a packing variant — the quantities behind Fig 11's three bars
// (server time, client time, communication), evaluated for arbitrary
// point counts and dimensionalities without running the kernel.
type Cost struct {
	Variant Variant
	UpCts   int
	DownCts int
	Server  core.OpCounts
}

// AnalyzeCost computes the cost model for m points of (padded)
// dimension d with the given slot count.
func AnalyzeCost(variant Variant, m, d, slots int) Cost {
	log2 := func(v int) int {
		n := 0
		for 1<<uint(n) < v {
			n++
		}
		return n
	}
	perCt := slots / d
	groupsStacked := (m + perCt - 1) / perCt
	c := Cost{Variant: variant}
	switch variant {
	case PointMajor:
		// One point per ciphertext: M server squarings and in-block
		// reductions, M sparse result ciphertexts.
		c.UpCts = 1
		c.DownCts = m
		c.Server = core.OpCounts{CtMults: m, Rotations: m * log2(d), Adds: m * log2(d)}
	case DimensionMajor:
		// One ciphertext per dimension; no rotations at all.
		c.UpCts = d
		c.DownCts = 1
		c.Server = core.OpCounts{CtMults: d, Adds: d - 1}
	case StackedPointMajor:
		c.UpCts = 1
		c.DownCts = groupsStacked
		c.Server = core.OpCounts{CtMults: groupsStacked, Rotations: groupsStacked * log2(d), Adds: groupsStacked * log2(d)}
	case StackedDimMajor:
		// All dimensions in one ciphertext when m·d ≤ slots; otherwise
		// split across ceil(m·d/slots) ciphertexts.
		cts := (m*d + slots - 1) / slots
		c.UpCts = cts
		c.DownCts = cts
		c.Server = core.OpCounts{CtMults: cts, Rotations: cts * log2(d), Adds: cts * log2(d)}
	case CollapsedPointMajor:
		// Stacked computation plus the collapse — extra server work for
		// a single dense download: every point but the first rotates
		// into place (none moves when d = 1), every point is masked, and
		// the m masked terms fold with m−1 adds.
		c.UpCts = 1
		c.DownCts = 1
		repositions := 0
		if d > 1 {
			repositions = m - 1
		}
		c.Server = core.OpCounts{
			CtMults:    groupsStacked,
			Rotations:  groupsStacked*log2(d) + repositions,
			PlainMults: m,
			Adds:       groupsStacked*log2(d) + m - 1,
		}
	}
	return c
}

// TotalCts returns the ciphertexts crossing the link.
func (c Cost) TotalCts() int { return c.UpCts + c.DownCts }
