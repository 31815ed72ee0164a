package campaign

// CellBy returns the first cell whose labels include every given
// axis=value pair, or nil.
func (r *Report) CellBy(want map[string]string) *CellReport {
	for i := range r.Cells {
		m := make(map[string]string, len(r.Cells[i].Labels))
		for _, l := range r.Cells[i].Labels {
			m[l.Axis] = l.Value
		}
		match := true
		for k, v := range want {
			if m[k] != v {
				match = false
				break
			}
		}
		if match {
			return &r.Cells[i]
		}
	}
	return nil
}
