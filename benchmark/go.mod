module hetkg/benchmark

go 1.22

require hetkg v0.0.0

replace hetkg => ../
