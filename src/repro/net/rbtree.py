"""Red-black tree.

TCP receivers keep out-of-order segments in a red-black tree so that an
arriving in-order segment can quickly find and splice its successors —
the paper (§4.2) points at this structure as evidence that packet
metadata builds efficient in-memory indexes.  We use it for exactly
that (the TCP OOO queue); ``benchmarks/bench_primitives.py`` times it.

Standard CLRS implementation with a shared NIL sentinel.  Keys are
ints (or anything totally ordered); values are arbitrary.  Duplicate
keys are rejected — callers that can see duplicates (TCP overlapping
segments) resolve them before insertion.
"""

RED = True
BLACK = False


class _Node:
    __slots__ = ("key", "value", "left", "right", "parent", "color")

    def __init__(self, key, value, color, nil):
        self.key = key
        self.value = value
        self.left = nil
        self.right = nil
        self.parent = nil
        self.color = color


class RBTree:
    """Sorted map: insert, delete, exact/floor/ceiling search, in-order walk."""

    def __init__(self):
        self._nil = _Node(None, None, BLACK, None)
        self._nil.left = self._nil.right = self._nil.parent = self._nil
        self._root = self._nil
        self._count = 0

    def __len__(self):
        return self._count

    def __bool__(self):
        return self._count > 0

    def __contains__(self, key):
        return self._find(key) is not self._nil

    # -- search ---------------------------------------------------------------

    def _find(self, key):
        node = self._root
        while node is not self._nil:
            if key == node.key:
                return node
            node = node.left if key < node.key else node.right
        return self._nil

    def get(self, key, default=None):
        node = self._find(key)
        return default if node is self._nil else node.value

    def min(self):
        """(key, value) of the smallest key; None if empty."""
        if self._root is self._nil:
            return None
        node = self._min_node(self._root)
        return node.key, node.value

    def max(self):
        if self._root is self._nil:
            return None
        node = self._root
        while node.right is not self._nil:
            node = node.right
        return node.key, node.value

    def floor(self, key):
        """Largest (k, v) with k <= key; None if none."""
        node, best = self._root, None
        while node is not self._nil:
            if node.key == key:
                return node.key, node.value
            if node.key < key:
                best = node
                node = node.right
            else:
                node = node.left
        return None if best is None else (best.key, best.value)

    def ceiling(self, key):
        """Smallest (k, v) with k >= key; None if none."""
        node, best = self._root, None
        while node is not self._nil:
            if node.key == key:
                return node.key, node.value
            if node.key > key:
                best = node
                node = node.left
            else:
                node = node.right
        return None if best is None else (best.key, best.value)

    def items(self):
        """In-order (key, value) pairs."""
        stack, node = [], self._root
        while stack or node is not self._nil:
            while node is not self._nil:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.value
            node = node.right

    def keys(self):
        for key, _ in self.items():
            yield key

    # -- insert ---------------------------------------------------------------

    def insert(self, key, value):
        """Insert a new key.  Raises KeyError on duplicates."""
        parent, node = self._nil, self._root
        while node is not self._nil:
            parent = node
            if key == node.key:
                raise KeyError(f"duplicate key {key!r}")
            node = node.left if key < node.key else node.right
        fresh = _Node(key, value, RED, self._nil)
        fresh.parent = parent
        if parent is self._nil:
            self._root = fresh
        elif key < parent.key:
            parent.left = fresh
        else:
            parent.right = fresh
        self._count += 1
        self._insert_fixup(fresh)
        return fresh

    def replace(self, key, value):
        """Insert, or overwrite the value if the key exists."""
        node = self._find(key)
        if node is self._nil:
            self.insert(key, value)
        else:
            node.value = value

    def _rotate_left(self, x):
        y = x.right
        x.right = y.left
        if y.left is not self._nil:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is self._nil:
            self._root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y

    def _rotate_right(self, x):
        y = x.left
        x.left = y.right
        if y.right is not self._nil:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is self._nil:
            self._root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y

    def _insert_fixup(self, z):
        while z.parent.color is RED:
            if z.parent is z.parent.parent.left:
                uncle = z.parent.parent.right
                if uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    z.parent.parent.color = RED
                    z = z.parent.parent
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_right(z.parent.parent)
            else:
                uncle = z.parent.parent.left
                if uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    z.parent.parent.color = RED
                    z = z.parent.parent
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_left(z.parent.parent)
        self._root.color = BLACK

    # -- delete ---------------------------------------------------------------

    def delete(self, key):
        """Remove a key; returns its value.  Raises KeyError if missing."""
        node = self._find(key)
        if node is self._nil:
            raise KeyError(key)
        value = node.value
        self._delete_node(node)
        self._count -= 1
        return value

    def pop_min(self):
        """Remove and return the smallest (key, value); None if empty."""
        if self._root is self._nil:
            return None
        node = self._min_node(self._root)
        pair = (node.key, node.value)
        self._delete_node(node)
        self._count -= 1
        return pair

    def _min_node(self, node):
        while node.left is not self._nil:
            node = node.left
        return node

    def _transplant(self, u, v):
        if u.parent is self._nil:
            self._root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def _delete_node(self, z):
        y = z
        y_color = y.color
        if z.left is self._nil:
            x = z.right
            self._transplant(z, z.right)
        elif z.right is self._nil:
            x = z.left
            self._transplant(z, z.left)
        else:
            y = self._min_node(z.right)
            y_color = y.color
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
        if y_color is BLACK:
            self._delete_fixup(x)

    def _delete_fixup(self, x):
        while x is not self._root and x.color is BLACK:
            if x is x.parent.left:
                w = x.parent.right
                if w.color is RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_left(x.parent)
                    w = x.parent.right
                if w.left.color is BLACK and w.right.color is BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.right.color is BLACK:
                        w.left.color = BLACK
                        w.color = RED
                        self._rotate_right(w)
                        w = x.parent.right
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.right.color = BLACK
                    self._rotate_left(x.parent)
                    x = self._root
            else:
                w = x.parent.left
                if w.color is RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_right(x.parent)
                    w = x.parent.left
                if w.right.color is BLACK and w.left.color is BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.left.color is BLACK:
                        w.right.color = BLACK
                        w.color = RED
                        self._rotate_left(w)
                        w = x.parent.left
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.left.color = BLACK
                    self._rotate_right(x.parent)
                    x = self._root
        x.color = BLACK

    # -- verification (used by property tests) ---------------------------------

    def check_invariants(self):
        """Assert BST + red-black invariants; returns the black height."""
        assert self._root.color is BLACK, "root must be black"

        def walk(node, lo, hi):
            if node is self._nil:
                return 1
            assert (lo is None or node.key > lo) and (hi is None or node.key < hi), (
                "BST order violated"
            )
            if node.color is RED:
                assert node.left.color is BLACK and node.right.color is BLACK, (
                    "red node with red child"
                )
            left_bh = walk(node.left, lo, node.key)
            right_bh = walk(node.right, node.key, hi)
            assert left_bh == right_bh, "black-height mismatch"
            return left_bh + (1 if node.color is BLACK else 0)

        return walk(self._root, None, None)
