package errtype

import (
	"errors"
	"fmt"
	"strconv"
	"testing"
)

type aErr struct{ n int }

func (e *aErr) Error() string { return "a" + strconv.Itoa(e.n) }
func (e *aErr) Code() int     { return e.n }

type bErr struct{ n int }

func (e *bErr) Error() string { return "b" + strconv.Itoa(e.n) }

// coder is an interface target: both errors.As and As match it by
// implementation, not identity.
type coder interface {
	error
	Code() int
}

// wrapErr is a hand-written single wrapper; its cause may be nil.
type wrapErr struct{ err error }

func (e *wrapErr) Error() string { return "wrap" }
func (e *wrapErr) Unwrap() error { return e.err }

// multiErr is a hand-written multi wrapper; its causes may hold nils.
type multiErr struct{ errs []error }

func (e *multiErr) Error() string   { return "multi" }
func (e *multiErr) Unwrap() []error { return e.errs }

// buildChain interprets prog as a stack program that builds an error
// tree: each byte's low nibble picks an operation, its high nibble is
// the operand of leaf-making operations. Popping an empty stack yields
// nil, so programs exercise nil causes too. The result is the stack's
// top.
func buildChain(prog []byte) error {
	var st []error
	pop := func() error {
		if len(st) == 0 {
			return nil
		}
		e := st[len(st)-1]
		st = st[:len(st)-1]
		return e
	}
	for _, op := range prog {
		n := int(op >> 4)
		switch op & 0xf {
		case 0:
			st = append(st, &aErr{n})
		case 1:
			st = append(st, &bErr{n})
		case 2:
			st = append(st, errors.New("plain"))
		case 3:
			st = append(st, fmt.Errorf("w: %w", pop()))
		case 4:
			x, y := pop(), pop()
			st = append(st, fmt.Errorf("%w + %w", x, y))
		case 5:
			x, y := pop(), pop()
			if j := errors.Join(x, y); j != nil {
				st = append(st, j)
			}
		case 6:
			st = append(st, &wrapErr{pop()})
		case 7:
			if e := pop(); e != nil {
				st = append(st, fmt.Errorf("flat: %v", e)) // %v: no wrap
			}
		case 8:
			x, y := pop(), pop()
			st = append(st, &multiErr{[]error{x, nil, y}})
		case 9:
			// Duplicate the top, so a leaf can sit on two branches.
			e := pop()
			st = append(st, e, e)
		}
	}
	return pop()
}

// sameAs compares As[T] with errors.As on err.
func sameAs[T interface {
	comparable
	error
}](t *testing.T, err error) {
	t.Helper()
	var want T
	wantOK := errors.As(err, &want)
	got, gotOK := As[T](err)
	if gotOK != wantOK || got != want {
		t.Fatalf("%T on %v: As = (%v, %v), errors.As = (%v, %v)", want, err, got, gotOK, want, wantOK)
	}
}

func checkChain(t *testing.T, prog []byte) {
	t.Helper()
	err := buildChain(prog)
	sameAs[*aErr](t, err)
	sameAs[*bErr](t, err)
	sameAs[coder](t, err)
	sameAs[*wrapErr](t, err)
	sameAs[*multiErr](t, err)
}

// chainSeeds are programs whose target sits behind each wrapping form:
// one %w, several %w, errors.Join, the hand-written wrappers, and
// nestings of them; several put the target only on a later branch.
var chainSeeds = [][]byte{
	{0x30},                   // *aErr alone
	{0x30, 0x03},             // fmt.Errorf %w
	{0x30, 0x03, 0x03, 0x06}, // nested single wrappers
	{0x11, 0x02, 0x04},       // two %w, *bErr on the second branch
	{0x02, 0x11, 0x05},       // errors.Join, *bErr second
	{0x10, 0x21, 0x05, 0x03, 0x02, 0x05},
	{0x11, 0x02, 0x08}, // multiErr with a nil between
	{0x06},             // wrapper around nil
	{0x30, 0x07},       // %v flattens: no match
	{0x40, 0x21, 0x04, 0x09, 0x05, 0x06, 0x02, 0x08},
	{0x02, 0x02, 0x05, 0x10, 0x05, 0x03, 0x11, 0x04},
}

func TestAsMatchesErrorsAsOnSeeds(t *testing.T) {
	for _, prog := range chainSeeds {
		checkChain(t, prog)
	}
	if _, ok := As[*aErr](nil); ok {
		t.Fatal("As matched a nil error")
	}
}

// FuzzAsMatchesErrorsAs is the differential test: on any generated
// chain, As finds what errors.As finds, for concrete and interface
// targets alike.
func FuzzAsMatchesErrorsAs(f *testing.F) {
	for _, prog := range chainSeeds {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 64 {
			prog = prog[:64]
		}
		checkChain(t, prog)
	})
}

// TestAsDoesNotAllocate: the point of the package — a hit through a
// multi-%w chain and a miss both allocate nothing.
func TestAsDoesNotAllocate(t *testing.T) {
	err := buildChain([]byte{0x02, 0x11, 0x05, 0x03, 0x02, 0x04})
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := As[*bErr](err); !ok {
			t.Fatal("no *bErr")
		}
		if _, ok := As[*aErr](err); ok {
			t.Fatal("a stray *aErr")
		}
	}); allocs != 0 {
		t.Errorf("As allocates %v times, want 0", allocs)
	}
}
