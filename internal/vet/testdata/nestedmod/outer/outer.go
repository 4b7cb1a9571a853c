// Package outer is the one package of the fixture's root module.
package outer

// Answer is exported so the package has a declaration to check.
const Answer = 42
