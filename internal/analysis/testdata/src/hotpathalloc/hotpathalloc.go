// Fixtures for the hotpathalloc analyzer: structural zero-alloc guard.
package hotpathalloc

import (
	"errors"
	"fmt"

	"starlink/internal/message"
)

//starlink:hotpath
func sprintfOnHotPath(n int) string {
	return fmt.Sprintf("n=%d", n) // want "fmt.Sprintf on a //starlink:hotpath success path"
}

//starlink:hotpath
func concatOnHotPath(a, b string) string {
	return a + b // want "string concatenation"
}

// Constant folding keeps literal concatenation free.
//
//starlink:hotpath
func constConcat() string {
	return "slp" + "://"
}

//starlink:hotpath
func closureOnHotPath(ns []int) int {
	total := 0
	add := func(n int) { total += n } // want "closure capturing total"
	for _, n := range ns {
		add(n)
	}
	return total
}

//starlink:hotpath
func zeroCapAppend(ns []int) []int {
	var out []int
	for _, n := range ns {
		out = append(out, n) // want "append to out, which starts with no capacity"
	}
	return out
}

//starlink:hotpath
func emptyLitAppend(ns []int) []int {
	out := []int{}
	return append(out, ns...) // want "append to out"
}

//starlink:hotpath
func preallocatedAppend(ns []int) []int {
	out := make([]int, 0, len(ns))
	for _, n := range ns {
		out = append(out, n)
	}
	return out
}

//starlink:hotpath
func callerBuffer(dst []byte, b byte) []byte {
	return append(dst, b)
}

// Error construction sits on the failure path and may allocate.
//
//starlink:hotpath
func coldErrorPathAllowed(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("negative: %d", n)
	}
	return n * 2, nil
}

// Unannotated functions are out of scope no matter what they do.
func unannotated(a, b string) string {
	add := func(x string) string { return a + x }
	return fmt.Sprintf("%s", add(b))
}

// The pooled message types: a literal's address is a heap allocation
// the pool would have recycled.
//
//starlink:hotpath
func fieldLiteral(m *message.Message) {
	m.Add(&message.Field{Label: "XID"}) // want "&message.Field.. on a //starlink:hotpath success path allocates; take one from the pool .message.NewField."
}

//starlink:hotpath
func messageLiteral() *message.Message {
	return &message.Message{Name: "SLPSrvReply"} // want "&message.Message.. .*message.NewPooled"
}

//starlink:hotpath
func pooledField(m *message.Message) {
	f := message.NewField()
	f.Label = "XID"
	m.Add(f)
}

// A value literal is not an allocation, and the failure path may
// allocate as ever.
//
//starlink:hotpath
func literalOffTheHotPath(m *message.Message) (message.Field, error) {
	if m == nil {
		return message.Field{}, errors.New("no message: " + (&message.Field{}).Label)
	}
	return message.Field{Label: "XID"}, nil
}
