package obs

import (
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("cat", "name")
	if sp != nil {
		t.Fatal("nil tracer must return nil span")
	}
	sp.End() // no-op
	tr.Instant("cat", "marker")
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must read as empty")
	}
}

// Sweep workers share one tracer: concurrent spans must all be recorded
// and must release every track they claimed.
func TestConcurrentUse(t *testing.T) {
	tr := NewTracer(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				tr.StartSpan("c", "s", Arg{"j", j}).End()
			}
		}()
	}
	wg.Wait()
	if got := tr.Len(); got != 8000 {
		t.Fatalf("spans = %d, want 8000", got)
	}
	for tid, used := range tr.tracks {
		if used {
			t.Fatalf("track %d still claimed after every span ended", tid)
		}
	}
}
