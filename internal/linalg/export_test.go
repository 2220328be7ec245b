package linalg

// AccSpilled exposes Acc.spilled to the external tests.
var AccSpilled = (*Acc).spilled
