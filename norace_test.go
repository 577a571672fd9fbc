//go:build !race

package dpc

const raceBuild = false
