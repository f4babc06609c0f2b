"""Per-reflection reference computations that tests compare the package against."""

import math


def to_object_frame(refl, pose):
    """One reflection's world position in the object's coordinate system.

    Subtract the object position, then rotate by -heading so the object's
    heading axis becomes +x. `preprocess.reflection_table` must give these
    floats bit for bit.
    """
    dx = refl.x - pose.x
    dy = refl.y - pose.y
    c = math.cos(pose.heading)
    s = math.sin(pose.heading)
    return c * dx + s * dy, -s * dx + c * dy
