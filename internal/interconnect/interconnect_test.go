package interconnect

import "testing"

func TestFIFOOrder(t *testing.T) {
	q := NewBankQueue(1)
	q.Push(0, "a")
	q.Push(0, "b")
	q.Push(0, "c")
	var got []string
	for cyc := int64(1); cyc < 10; cyc++ {
		for {
			it := q.Pop(cyc)
			if it == nil {
				break
			}
			got = append(got, it.(string))
		}
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("order: %v", got)
	}
}

func TestServiceRateLimit(t *testing.T) {
	q := NewBankQueue(2)
	for i := 0; i < 10; i++ {
		q.Push(0, i)
	}
	served := 0
	for cyc := int64(1); cyc <= 3; cyc++ {
		for q.Pop(cyc) != nil {
			served++
		}
	}
	if served != 6 { // 2 per cycle * 3 cycles
		t.Fatalf("served %d in 3 cycles at rate 2", served)
	}
}

func TestSameCycleArrivalNotServed(t *testing.T) {
	q := NewBankQueue(4)
	q.Push(5, "x")
	if q.Pop(5) != nil {
		t.Fatal("served an item the cycle it arrived")
	}
	if q.Pop(6) == nil {
		t.Fatal("not served the following cycle")
	}
}

func TestWaitAccounting(t *testing.T) {
	q := NewBankQueue(1)
	q.Push(0, "a")
	q.Push(0, "b")
	if q.Pop(3) == nil { // a waited 3
		t.Fatal("pop failed")
	}
	if q.Pop(5) == nil { // b waited 5
		t.Fatal("pop failed")
	}
	if q.TotalWait != 8 {
		t.Fatalf("TotalWait=%d want 8", q.TotalWait)
	}
	if q.Arrivals != 2 || q.MaxDepth != 2 {
		t.Fatalf("Arrivals=%d MaxDepth=%d", q.Arrivals, q.MaxDepth)
	}
}

func TestRateFloor(t *testing.T) {
	for _, rate := range []int{0, -3} {
		q := NewBankQueue(rate) // clamps to 1
		q.Push(0, "a")
		if q.Pop(1) == nil {
			t.Fatalf("rate floor broken at %d", rate)
		}
	}
}
