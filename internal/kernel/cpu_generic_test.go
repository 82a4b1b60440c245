//go:build !amd64

package kernel

// eachForm runs f once: the portable build has one form of each kernel,
// its Go loop.
func eachForm(f func(form string)) { f("portable") }
