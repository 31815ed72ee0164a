// Package bad does not type-check: loading it must fail, not read as
// clean.
package bad

var N int = "not an int"
