package obs

import (
	"testing"
	"time"
)

func TestSystemClockMonotone(t *testing.T) {
	prev := Now()
	for i := 0; i < 1000; i++ {
		now := Now()
		if now < prev {
			t.Fatalf("system clock went backwards: %d after %d", now, prev)
		}
		prev = now
	}
}

func TestSinceMeasuresElapsed(t *testing.T) {
	start := Now()
	time.Sleep(2 * time.Millisecond)
	if d := Since(start); d < time.Millisecond {
		t.Fatalf("Since = %v, want >= 1ms", d)
	}
}

func TestTicksSub(t *testing.T) {
	if d := Ticks(1500).Sub(Ticks(500)); d != time.Microsecond {
		t.Fatalf("Sub = %v, want 1µs", d)
	}
}
