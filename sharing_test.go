package sdrad

import (
	"context"
	"errors"
	"testing"
)

func TestPublicReadOnlySharing(t *testing.T) {
	sup := New()
	owner, err := sup.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	viewer, err := sup.NewDomain()
	if err != nil {
		t.Fatal(err)
	}

	var cfg Addr
	if err := owner.Do(context.Background(), func(c *Ctx) error {
		cfg = c.MustAlloc(16)
		c.MustStore(cfg, []byte("read-only data"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := owner.ShareReadOnlyWith(viewer); err != nil {
		t.Fatal(err)
	}

	err = viewer.Do(context.Background(), func(c *Ctx) error {
		buf := make([]byte, 14)
		c.MustLoad(cfg, buf)
		if string(buf) != "read-only data" {
			t.Errorf("read %q", buf)
		}
		c.MustStore(cfg, []byte("tamper")) // must trap
		return nil
	})
	if _, ok := IsViolation(err); !ok {
		t.Fatalf("write through read grant = %v, want violation", err)
	}

	if err := owner.RevokeReadFrom(viewer); err != nil {
		t.Fatal(err)
	}
	err = viewer.Do(context.Background(), func(c *Ctx) error {
		buf := make([]byte, 1)
		c.MustLoad(cfg, buf)
		return nil
	})
	if _, ok := IsViolation(err); !ok {
		t.Errorf("read after revoke = %v, want violation", err)
	}
}

func TestPublicQuarantine(t *testing.T) {
	sup := New()
	dom, _ := sup.NewDomain()
	if err := dom.SetViolationBudget(2); err != nil {
		t.Fatal(err)
	}
	crash := func(c *Ctx) error {
		c.Violate(errors.New("bug"))
		return nil
	}
	for i := 0; i < 2; i++ {
		if _, ok := IsViolation(dom.Do(context.Background(), crash)); !ok {
			t.Fatal("violation not delivered")
		}
	}
	q, err := dom.Quarantined()
	if err != nil || !q {
		t.Fatalf("Quarantined = %v, %v", q, err)
	}
	if err := dom.Do(context.Background(), crash); !errors.Is(err, ErrQuarantined) {
		t.Errorf("err = %v, want ErrQuarantined", err)
	}
}

func TestPublicDetachHeap(t *testing.T) {
	sup := New()
	dom, _ := sup.NewDomain()
	var result Addr
	if err := dom.Do(context.Background(), func(c *Ctx) error {
		result = c.MustAlloc(32)
		c.MustStore(result, []byte("zero-copy result"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	h, err := dom.DetachHeap()
	if err != nil {
		t.Fatal(err)
	}
	if h == nil {
		t.Fatal("nil heap")
	}
	// The domain is closed now.
	if err := dom.Do(context.Background(), func(*Ctx) error { return nil }); err == nil {
		t.Error("Run on detached domain accepted")
	}
	// A new domain can take the freed key and cannot touch the adopted
	// data (which is root-owned now).
	dom2, err := sup.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	err = dom2.Do(context.Background(), func(c *Ctx) error {
		c.MustStore(result, []byte("overwrite"))
		return nil
	})
	// Adopted pages carry the root-protected key: domain code cannot
	// touch them.
	if _, ok := IsViolation(err); !ok {
		t.Errorf("domain write to adopted page = %v, want violation", err)
	}
	got, rerr := dom2.Read(result, 16)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(got) != 16 {
		t.Errorf("adopted data length %d", len(got))
	}
}
