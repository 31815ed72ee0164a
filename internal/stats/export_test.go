package stats

// Min returns the smallest observation (0 for an empty histogram). No
// caller outside this package's tests reads it.
func (h *Histogram) Min() int64 { return h.min }
