"""q-difference operators, Jackson integrals and the q-hypergeometric
solution families of the degree-two/three equation variants, with a
residual-based verification layer."""
