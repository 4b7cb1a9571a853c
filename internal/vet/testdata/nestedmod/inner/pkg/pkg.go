// Package pkg belongs to the nested module; a ./... walk of the outer
// module must not load it. Its errwrap finding would surface if it did.
package pkg

import "errors"

// Same compares error text, which the errwrap analyzer flags.
func Same(a, b error) bool { return a.Error() == b.Error() || errors.Is(a, b) }
