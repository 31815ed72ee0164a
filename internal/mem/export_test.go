package mem

// MappedPages returns the number of allocated pages.
func (m *Memory) MappedPages() int { return len(m.pages) }
