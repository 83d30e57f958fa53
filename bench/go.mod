module napawine/bench

go 1.24

require napawine v0.0.0

replace napawine => ../
