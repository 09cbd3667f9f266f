// Command deadcode is the fixture of the module's dead-code gate: one
// planted function that nothing calls, beside three methods that only an
// interface type reaches. The gate must report planted and nothing else.
package main

import (
	"errors"
	"flag"
	"fmt"
)

// statusError's HTTPStatus is reached only through the interface literal
// main hands to errors.As.
type statusError struct{ code int }

func (e statusError) Error() string { return fmt.Sprintf("status %d", e.code) }

func (e statusError) HTTPStatus() int { return e.code }

// counter's Merge is reached only through total's type-parameter
// constraint.
type counter struct{ n int }

func (c *counter) Merge(o counter) { c.n += o.n }

func total[S any, P interface {
	*S
	Merge(S)
}](xs []S) (sum S) {
	for _, x := range xs {
		P(&sum).Merge(x)
	}
	return sum
}

// level's String and Set are reached only through flag.Value (String also
// through fmt.Stringer).
type level int

func (l *level) String() string { return fmt.Sprint(int(*l)) }

func (l *level) Set(s string) error {
	_, err := fmt.Sscan(s, (*int)(l))
	return err
}

// planted is the dead function.
func planted() int { return 1 }

func main() {
	var lv level
	flag.Var(&lv, "level", "a level")
	flag.Parse()
	var st interface{ HTTPStatus() int }
	if errors.As(fmt.Errorf("wrapped: %w", statusError{404}), &st) {
		fmt.Println(st.HTTPStatus())
	}
	fmt.Println(total([]counter{{1}, {2}}).n, lv)
}
