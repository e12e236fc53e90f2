// Package unusedexport is the fixture tree's public package: it
// re-exports lib.Reexported, so that type's methods are API even though
// nothing in the tree calls them.
package unusedexport

import "unusedexport/internal/lib"

// R re-exports lib.Reexported.
type R = lib.Reexported
