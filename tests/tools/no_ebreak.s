# Falls off the end of its image: no ebreak ends the program.
_start:
    li t0, 1
    addi t0, t0, 1
