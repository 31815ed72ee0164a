// Package cache exercises every guard form obsgated must accept, and
// the bare and closure-hidden calls it must flag.
package cache

import "obsgated/trace"

type L1 struct {
	tr   *trace.Ring
	tick uint64
}

func (l *L1) lookupGated() {
	if l.tr.Enabled(1) {
		l.tr.Addf(l.tick, 1, "hit %d", l.tick)
	}
}

func (l *L1) lookupBare() {
	l.tr.Addf(l.tick, 1, "hit %d", l.tick) // want `ungated`
}

func (l *L1) lookupNilGuard() {
	if l.tr != nil {
		l.tr.Add(l.tick, 1, "hit")
	}
}

func (l *L1) lookupEarlyNil() {
	if l.tr == nil {
		return
	}
	l.tr.Add(l.tick, 1, "hit")
}

func (l *L1) lookupEarlyDisabled() {
	if !l.tr.Enabled(1) {
		return
	}
	l.tr.Addf(l.tick, 1, "miss %d", l.tick)
}

func (l *L1) lookupElseBranch() {
	if l.tr == nil {
		l.tick++
	} else {
		l.tr.Add(l.tick, 1, "hit")
	}
}

// A guard outside a closure does not dominate the closure body: the
// closure may run after the scope is swapped out.
func (l *L1) lookupClosure() {
	if l.tr.Enabled(1) {
		f := func() {
			l.tr.Add(l.tick, 1, "deferred") // want `ungated`
		}
		f()
	}
}

func (l *L1) enabledItself() bool { return l.tr.Enabled(1) }
