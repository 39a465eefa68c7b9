package repro.triangles

/** A growable column of primitive ints: amortized O(1) append, O(1)
  * indexed read and write, no boxing. Backs the triangle store and the
  * per-edge columns of the maintenance state.
  */
final class IntColumn private (private var data: Array[Int], private var n: Int) {

  /** An empty column with room for `capacity` values before it grows. */
  def this(capacity: Int) = this(new Array[Int](math.max(1, capacity)), 0)

  def length: Int = n

  def apply(i: Int): Int = {
    if (i >= n) outOfRange(i)
    data(i)
  }

  def update(i: Int, x: Int): Unit = {
    if (i >= n) outOfRange(i)
    data(i) = x
  }

  // kept out of line so that `apply` stays small enough for the JIT to inline
  private def outOfRange(i: Int): Nothing =
    throw new IndexOutOfBoundsException(s"index $i, length $n")

  def +=(x: Int): this.type = {
    if (n == data.length) data = java.util.Arrays.copyOf(data, math.max(1, 2 * n))
    data(n) = x
    n += 1
    this
  }

  /** The backing array, for hot loops: slots `[0, length)` hold the
    * values, the rest is spare capacity. Read only, and only until the next
    * append, which may move the values to a new array.
    */
  def unsafeArray: Array[Int] = data

  /** The values as an exact-length array, independent of the column. */
  def toArray: Array[Int] = java.util.Arrays.copyOf(data, n)

  /** [[toArray]] with slot `i` set to `x`. */
  def updated(i: Int, x: Int): Array[Int] = { val a = toArray; a(i) = x; a }

  /** An independent column with the same values. */
  def copy(): IntColumn = new IntColumn(toArray, n)
}

object IntColumn {

  /** A column over `xs` itself, without a copy: the column takes `xs` over,
    * and the caller must not write to it afterwards.
    */
  def wrap(xs: Array[Int]): IntColumn = new IntColumn(xs, xs.length)
}
