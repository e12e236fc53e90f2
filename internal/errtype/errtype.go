// Package errtype finds a typed error in an error chain without a heap
// allocation.
//
// errors.As takes a pointer to its target, and that pointer escapes: a
// comma-ok classifier written as `var v *T; errors.As(err, &v)` costs
// one allocation per call, hit or miss. As walks the same tree with
// type assertions instead, so the classifiers on the containment path
// (detect → trap → rewind → classify) allocate nothing.
package errtype

// As reports whether err, or an error in the tree it wraps, is a T, and
// returns the first one found. The walk is errors.As's: err itself
// first, then a pre-order, depth-first descent through Unwrap() error
// and Unwrap() []error. Unlike errors.As it does not consult As(any)
// bool methods; no error type in this module has one, so for every
// error here the two agree (FuzzAsMatchesErrorsAs).
func As[T error](err error) (T, bool) {
	for err != nil {
		if t, ok := err.(T); ok {
			return t, true
		}
		switch u := err.(type) {
		case interface{ Unwrap() error }:
			err = u.Unwrap()
		case interface{ Unwrap() []error }:
			for _, e := range u.Unwrap() {
				if t, ok := As[T](e); ok {
					return t, true
				}
			}
			err = nil
		default:
			err = nil
		}
	}
	var zero T
	return zero, false
}
