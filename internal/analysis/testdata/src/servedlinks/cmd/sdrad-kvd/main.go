// Command sdrad-kvd is the fixture tree's serving binary.
package main

import (
	"servedlinks/internal/attackgen" // want `servedlinks/cmd/sdrad-kvd imports servedlinks/internal/attackgen, test machinery, and the serving binary servedlinks/cmd/sdrad-kvd links it`
	"servedlinks/internal/kvstore"
)

func main() {
	kvstore.Serve()
	attackgen.Run()
}
