package core

import (
	"fmt"
	"strings"
)

// Snapshot is a point-in-time view of the encoded array: how many lines
// are resident, how many partitions are stored inverted, and how the
// stored bit density is distributed. It answers "what did the predictor
// actually do to my data" without wading through per-access logs.
type Snapshot struct {
	// ValidLines counts resident lines.
	ValidLines int
	// DirtyLines counts resident modified lines.
	DirtyLines int
	// InvertedPartitions and TotalPartitions describe the direction
	// masks across all valid lines.
	InvertedPartitions, TotalPartitions int
	// StoredDensityHist buckets valid lines by stored (encoded) ones
	// density: bucket i covers [i*10%, (i+1)*10%), with 100% merged into
	// the last bucket.
	StoredDensityHist [10]int
	// LogicalDensityHist is the same over the decoded (logical) bits,
	// showing what the encoder started from.
	LogicalDensityHist [10]int
	// PendingUpdates is the update-FIFO backlog.
	PendingUpdates int
}

// Snapshot scans the array. Cost is proportional to capacity; intended
// for end-of-run inspection, not the access path.
func (c *CNTCache) Snapshot() Snapshot {
	var s Snapshot
	geom := c.cache.Geometry()
	for set := 0; set < geom.Sets; set++ {
		for way := 0; way < geom.Ways; way++ {
			data, _, valid, dirty := c.cache.Line(set, way)
			if !valid {
				continue
			}
			s.ValidLines++
			if dirty {
				s.DirtyLines++
			}
			st := &c.state[set*c.ways+way]
			s.TotalPartitions += c.parts
			for m := st.mask; m != 0; m &= m - 1 {
				s.InvertedPartitions++
			}
			stored := c.storedOnes(data, st.mask, 0, c.lineBytes)
			logical := c.storedOnes(data, 0, 0, c.lineBytes)
			s.StoredDensityHist[densityBucket(stored, c.lineBits)]++
			s.LogicalDensityHist[densityBucket(logical, c.lineBits)]++
		}
	}
	if c.queue != nil {
		s.PendingUpdates = c.queue.Len()
	}
	return s
}

func densityBucket(ones, bits int) int {
	b := ones * 10 / bits
	if b > 9 {
		b = 9
	}
	return b
}

// InvertedFraction returns the share of partitions stored inverted.
func (s Snapshot) InvertedFraction() float64 {
	if s.TotalPartitions == 0 {
		return 0
	}
	return float64(s.InvertedPartitions) / float64(s.TotalPartitions)
}

// MeanBucket returns the density-weighted mean bucket midpoint (0..1) of
// a histogram.
func meanBucket(h [10]int) float64 {
	n, sum := 0, 0.0
	for i, c := range h {
		n += c
		sum += float64(c) * (float64(i)*0.1 + 0.05)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// String renders the snapshot as a small report with density histograms.
func (s Snapshot) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "lines: %d valid (%d dirty), partitions inverted: %d/%d (%.1f%%), fifo backlog: %d\n",
		s.ValidLines, s.DirtyLines, s.InvertedPartitions, s.TotalPartitions,
		100*s.InvertedFraction(), s.PendingUpdates)
	fmt.Fprintf(&sb, "ones density   logical(mean %.2f)  stored(mean %.2f)\n",
		meanBucket(s.LogicalDensityHist), meanBucket(s.StoredDensityHist))
	max := 1
	for i := range s.StoredDensityHist {
		if s.StoredDensityHist[i] > max {
			max = s.StoredDensityHist[i]
		}
		if s.LogicalDensityHist[i] > max {
			max = s.LogicalDensityHist[i]
		}
	}
	for i := 0; i < 10; i++ {
		lb := strings.Repeat("#", s.LogicalDensityHist[i]*20/max)
		sbar := strings.Repeat("#", s.StoredDensityHist[i]*20/max)
		fmt.Fprintf(&sb, "%2d0-%2d0%%  %-20s  %-20s (%d | %d)\n",
			i, i+1, lb, sbar, s.LogicalDensityHist[i], s.StoredDensityHist[i])
	}
	return sb.String()
}
