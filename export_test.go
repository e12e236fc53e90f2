package sdrad

// The lifecycle-managed constructors are unexported: the public ones
// run Init and Start for the caller. The external lifecycle battery
// builds Initializing handles through these test-only doors.
var (
	NewDeferredPool      = newDeferredPool
	NewDeferredAsyncPool = newDeferredAsyncPool
)

func (s *Supervisor) DeferDomain(opts ...DomainOption) *Domain { return s.deferDomain(opts...) }
