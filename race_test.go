//go:build race

package dpc

// raceBuild is true under `go test -race`. The concurrent cache-protocol
// tests are dominated by coroutine switches, which the detector makes ~20x
// dearer; their oracles do their finding in the plain run, so the race run
// keeps the shape and cuts the length.
const raceBuild = true
