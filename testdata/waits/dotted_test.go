package waits

import (
	"testing"
	. "time"
)

func TestDotted(t *testing.T) {
	<-After(Millisecond)
}
