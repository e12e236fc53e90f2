package alloc

import (
	"strconv"

	"repro/internal/mem"
)

// Check names the heap check that failed.
type Check uint8

// The heap checks. The first six are corruption detections
// (ErrHeapCorruption); the last three refuse a pointer that is not a
// live allocation (ErrBadFree).
const (
	// HeaderCanary: a live chunk's header canary was overwritten.
	HeaderCanary Check = iota + 1
	// Redzone: the canary word after a live chunk's payload was
	// overwritten (a heap overflow). Addr is the redzone's address.
	Redzone
	// SizeField: a chunk header's size field holds no size class; Got is
	// the value found.
	SizeField
	// FreedHeader: a free-list chunk lost its freed marker (Alloc's
	// tcache-key check).
	FreedHeader
	// FreedRedzone: a free-list chunk's redzone was overwritten after the
	// free (Alloc's tcache-key check).
	FreedRedzone
	// FreedSize: the integrity sweep found a freed chunk whose redzone is
	// not where its size field says (the size was overwritten after the
	// free).
	FreedSize
	// DoubleFree: Free of a chunk already carrying the freed marker.
	DoubleFree
	// NotAllocation: Free of an address inside the heap that is not the
	// start of a chunk.
	NotAllocation
	// BadFree: an address outside every heap region, or (UsableSize) one
	// without a live chunk's canary.
	BadFree
)

// CheckError is a failed heap check. It keeps what the check compared
// and renders its text only when Error is called, so a detection costs
// one allocation, not the several a formatted error would.
type CheckError struct {
	Check Check
	// Addr is the chunk base, except for Redzone (the redzone word) and
	// the ErrBadFree checks (the pointer the caller passed).
	Addr mem.Addr
	// Got and Want are the words compared: the canaries, or for
	// SizeField the size found in Got.
	Got, Want uint64
}

// Unwrap returns ErrHeapCorruption or ErrBadFree, so errors.Is and
// detect.Classify see the sentinel the check stands for.
func (e *CheckError) Unwrap() error {
	if e.Check >= DoubleFree {
		return ErrBadFree
	}
	return ErrHeapCorruption
}

// Error implements error.
func (e *CheckError) Error() string {
	var buf [160]byte
	b := append(buf[:0], e.Unwrap().Error()...)
	b = append(b, ": "...)
	switch e.Check {
	case HeaderCanary:
		b = appendGotWant(appendHex(append(b, "header canary at "...), uint64(e.Addr)), " (got ", e.Got, e.Want)
	case Redzone:
		b = appendGotWant(appendHex(append(b, "redzone at "...), uint64(e.Addr)), " (got ", e.Got, e.Want)
	case SizeField:
		b = appendHex(append(b, "size field at "...), uint64(e.Addr))
		b = append(strconv.AppendUint(append(b, " smashed ("...), e.Got, 10), ')')
	case FreedHeader:
		b = appendHex(append(b, "freed chunk header at "...), uint64(e.Addr))
		b = appendGotWant(b, " smashed (got ", e.Got, e.Want)
	case FreedRedzone:
		b = appendHex(append(b, "freed chunk redzone at "...), uint64(e.Addr))
		b = appendGotWant(b, " smashed (got ", e.Got, e.Want)
	case FreedSize:
		b = appendHex(append(b, "freed chunk at "...), uint64(e.Addr))
		b = appendGotWant(b, " size/redzone mismatch (redzone ", e.Got, e.Want)
	case DoubleFree:
		b = appendHex(append(b, "double free of "...), uint64(e.Addr))
	case NotAllocation:
		b = append(appendHex(b, uint64(e.Addr)), " is not an allocation"...)
	default: // BadFree
		b = appendHex(b, uint64(e.Addr))
	}
	return string(b)
}

// appendHex appends v as fmt's %#x does.
func appendHex(b []byte, v uint64) []byte {
	return strconv.AppendUint(append(b, "0x"...), v, 16)
}

// appendGotWant appends lead, got, " want ", want and ")", the words in
// %#x form.
func appendGotWant(b []byte, lead string, got, want uint64) []byte {
	b = appendHex(append(b, lead...), got)
	return append(appendHex(append(b, " want "...), want), ')')
}
