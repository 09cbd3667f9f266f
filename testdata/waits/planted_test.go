package waits

import (
	"testing"
	clock "time"
)

func TestAliased(t *testing.T) {
	clock.Sleep(clock.Millisecond)
}

// TestValue waits through a method value, not a call.
func TestValue(t *testing.T) {
	newTicker := clock.NewTicker
	newTicker(clock.Second).Stop()
}
