"""Worked-example tunes shared by the test modules."""

# "abracadabra" with a=0 b=1 r=2 c=3 d=4
ABRACADABRA = (0, 1, 2, 0, 3, 0, 4, 0, 1, 2, 0)

PITCH16 = (2, 11, 7, 4, 4, 7, 4, 4, 2, 11, 7, 4, 4, 7, 4, 4)

# a 46-note hornpipe phrase: two strains, each played twice
HORNPIPE = (2, 11, 7, 4, 4, 7, 4, 4, 7, 11, 2, 1, 2, 9, 6, 2, 2, 6, 2, 2,
            6, 9, 2, 1, 2, 11, 7, 4, 4, 7, 4, 4, 7, 11, 2, 4, 6, 2, 11, 9,
            6, 2, 4, 6, 4, 4)

# what induce makes of HORNPIPE, in render_grammar's text
HORNPIPE_GRAMMAR = (
    "p0 -> 2 p1 p2 9 p3 p3 6 9 p2 p1 2 4 p4 11 9 p4 4 6 p5; "
    "p1 -> 11 p6 p6 7 11; p2 -> 2 1 2; p3 -> p4 2; p4 -> 6 2; "
    "p5 -> 4 4; p6 -> 7 p5")

# HORNPIPE with the bodies of its rules for 2 1 2 and 4 4 swapped (kind 17)
HORNPIPE_SWAPPED = (2, 11, 7, 2, 1, 2, 7, 2, 1, 2, 7, 11, 4, 4, 9, 6, 2, 2,
                    6, 2, 2, 6, 9, 4, 4, 11, 7, 2, 1, 2, 7, 2, 1, 2, 7, 11,
                    2, 4, 6, 2, 11, 9, 6, 2, 4, 6, 2, 1, 2)
