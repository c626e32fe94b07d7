module autowrap/bench

go 1.24

require autowrap v0.0.0

replace autowrap => ../
