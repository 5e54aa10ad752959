module sparsefusion/bench

go 1.22

require sparsefusion v0.0.0

replace sparsefusion => ../
