// Package clock is the module's one manual clock. Every layer that decides
// by time reads a Now func() time.Time from its config (nil: time.Now), and
// node.Config.Now feeds them all; a test hands them a Manual's Now and
// moves time with Advance instead of waiting for it.
package clock

import (
	"sync"
	"time"
)

// Manual is a clock that reads 2026-01-01 00:00 UTC until advanced. It is
// safe for concurrent use.
type Manual struct {
	mu sync.Mutex
	t  time.Time
}

// NewManual returns a manual clock at its start.
func NewManual() *Manual { return &Manual{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)} }

// Now reads the clock.
func (c *Manual) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *Manual) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}
