package pku

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestPKRUAllowAllGrantsEverything(t *testing.T) {
	for k := Key(0); k < NumKeys; k++ {
		if !PKRUAllowAll.CanRead(k) {
			t.Errorf("AllowAll.CanRead(%v) = false", k)
		}
		if !PKRUAllowAll.CanWrite(k) {
			t.Errorf("AllowAll.CanWrite(%v) = false", k)
		}
	}
}

func TestPKRUDenyAllDeniesEverything(t *testing.T) {
	for k := Key(0); k < NumKeys; k++ {
		if PKRUDenyAll.CanRead(k) {
			t.Errorf("DenyAll.CanRead(%v) = true", k)
		}
		if PKRUDenyAll.CanWrite(k) {
			t.Errorf("DenyAll.CanWrite(%v) = true", k)
		}
	}
}

func TestWriteDisableStillAllowsRead(t *testing.T) {
	p := PKRUAllowAll.WithWriteDisabled(3)
	if !p.CanRead(3) {
		t.Error("WD should not affect reads")
	}
	if p.CanWrite(3) {
		t.Error("WD should deny writes")
	}
	// Other keys untouched.
	if !p.CanWrite(2) || !p.CanWrite(4) {
		t.Error("WD leaked to neighbouring keys")
	}
}

func TestWithAllowedClearsBothBits(t *testing.T) {
	p := PKRUDenyAll.WithAllowed(7)
	if !p.CanRead(7) || !p.CanWrite(7) {
		t.Error("WithAllowed should grant rw")
	}
	if p.CanRead(6) || p.CanRead(8) {
		t.Error("WithAllowed leaked to neighbouring keys")
	}
}

func TestOnlyKeys(t *testing.T) {
	p := OnlyKeys(0, 4)
	for k := Key(0); k < NumKeys; k++ {
		want := k == 0 || k == 4
		if got := p.CanRead(k) && p.CanWrite(k); got != want {
			t.Errorf("OnlyKeys(0,4): key %v rw = %v, want %v", k, got, want)
		}
	}
}

// Property: for any PKRU value and key, CanWrite implies CanRead
// (hardware AD dominates WD).
func TestWriteImpliesReadProperty(t *testing.T) {
	f := func(raw uint32, kRaw uint8) bool {
		p := PKRU(raw)
		k := Key(kRaw % NumKeys)
		return !p.CanWrite(k) || p.CanRead(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The access-disable bit denies both reads and writes, whatever the
// write-disable bit says.
func TestAccessDisableDeniesBoth(t *testing.T) {
	p := PKRUAllowAll | adBit(5)
	if p.CanRead(5) || p.CanWrite(5) {
		t.Error("AD should deny read and write")
	}
}

// Property: setting AD after WithAllowed denies the key again.
func TestDisableAfterAllowProperty(t *testing.T) {
	f := func(raw uint32, kRaw uint8) bool {
		k := Key(kRaw % NumKeys)
		p := PKRU(raw).WithAllowed(k) | adBit(k)
		return !p.CanRead(k) && !p.CanWrite(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocatorHandsOutFifteenKeys(t *testing.T) {
	var a Allocator
	seen := map[Key]bool{}
	for i := 0; i < NumKeys-1; i++ {
		k, err := a.Alloc()
		if err != nil {
			t.Fatalf("Alloc #%d: %v", i, err)
		}
		if k == DefaultKey {
			t.Fatalf("Alloc returned the default key")
		}
		if seen[k] {
			t.Fatalf("Alloc returned duplicate key %v", k)
		}
		seen[k] = true
	}
	if _, err := a.Alloc(); !errors.Is(err, ErrNoKeys) {
		t.Fatalf("16th Alloc err = %v, want ErrNoKeys", err)
	}
}

func TestAllocatorFreeAndReuse(t *testing.T) {
	var a Allocator
	k1, _ := a.Alloc()
	if err := a.Free(k1); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if a.inUse[k1] {
		t.Error("key still allocated after Free")
	}
	k2, err := a.Alloc()
	if err != nil {
		t.Fatalf("Alloc after free: %v", err)
	}
	if k2 != k1 {
		t.Errorf("lowest-free allocation: got %v, want %v", k2, k1)
	}
}

func TestAllocatorErrors(t *testing.T) {
	var a Allocator
	if err := a.Free(DefaultKey); !errors.Is(err, ErrDefaultKey) {
		t.Errorf("Free(0) = %v, want ErrDefaultKey", err)
	}
	if err := a.Free(9); !errors.Is(err, ErrKeyNotAllocated) {
		t.Errorf("Free(unallocated) = %v, want ErrKeyNotAllocated", err)
	}
	if err := a.Free(200); !errors.Is(err, ErrKeyNotAllocated) {
		t.Errorf("Free(invalid) = %v, want ErrKeyNotAllocated", err)
	}
}

func TestKeyValidity(t *testing.T) {
	if !Key(15).Valid() {
		t.Error("key 15 should be valid")
	}
	if Key(16).Valid() {
		t.Error("key 16 should be invalid")
	}
}

func TestPKRUString(t *testing.T) {
	s := PKRUAllowAll.String()
	if s == "" {
		t.Error("empty PKRU string")
	}
	if got := OnlyKeys(1).String(); got == PKRUAllowAll.String() {
		t.Error("distinct PKRU values rendered identically")
	}
}
