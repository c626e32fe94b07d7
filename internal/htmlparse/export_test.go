package htmlparse

// NodeHint exposes nodeHint to the external tests, which generate pages
// with a package that imports this one.
var NodeHint = nodeHint
