package waits

import (
	"testing"
	"time"
)

// TestReadsTheClock measures; it waits on nothing.
func TestReadsTheClock(t *testing.T) {
	start := time.Now()
	if time.Since(start) < 0 {
		t.Fatal("time ran backwards")
	}
}

// sleeper has methods named like the time package's waits.
type sleeper struct{}

func (sleeper) Sleep(time.Duration) {}
func (sleeper) After(time.Duration) {}

// TestShadowed calls methods on a local variable named time.
func TestShadowed(t *testing.T) {
	var s sleeper
	s.After(time.Second)
	{
		time := s
		time.Sleep(1)
	}
}
