package obs

import "time"

// Instant records a zero-duration marker event (ph="i"). Only this
// package's tests record one; no caller marks an instant yet.
func (t *Tracer) Instant(cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	ev := spanEvent{
		Name: name,
		Cat:  cat,
		Ph:   "i",
		Ts:   time.Since(t.start).Microseconds(),
		Pid:  1,
	}
	if len(args) > 0 {
		ev.Args = make(map[string]any, len(args))
		for _, a := range args {
			ev.Args[a.Key] = a.Val
		}
	}
	t.mu.Lock()
	if len(t.events) < t.maxEvents {
		t.events = append(t.events, ev)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}
