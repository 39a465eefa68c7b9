package repro.core

import java.util.Arrays
import repro.triangles.IntColumn

/** The complete answer substrate of both indexes: for every edge `e` and
  * every `3 ≤ k ≤ trn(e)`, the k-span of Definition 5 — the smallest δ such
  * that the (k, δ)-truss contains `e`.
  *
  * Membership test: `e ∈ T_{k,δ}` iff `k ≤ 2` (the (2,δ)-truss is the whole
  * graph) or `trn(e) ≥ k ∧ kspan(e,k) ≤ δ`. TC-Index and DC-Index are two
  * losslessly-compressed serializations of this table.
  *
  * MBA and DBA build it exact-sized over the given arrays, which it takes
  * over without a copy. The maintenance state (§VI) holds its own copy and
  * updates it in place: it appends edges, raises trussness, grows rows and
  * lowers k-spans.
  *
  * @param trn0      static trussness of each edge (δ = δmax column)
  * @param spans0    `spans0(e)(k−3)` = k-span of `e`, defined for `k ≤ trn(e)`
  * @param deltaMax0 largest triangle mts of the graph
  */
final class KSpanTable(trn0: Array[Int], spans0: Array[Array[Int]], deltaMax0: Int) {
  require(trn0.length == spans0.length, s"${trn0.length} edges but ${spans0.length} k-span rows")

  val trn: IntColumn = IntColumn.wrap(trn0)
  val spans: SpanRows = new SpanRows(spans0)
  private var dMax = deltaMax0
  private var top = trn0.foldLeft(2)(_ max _)

  def m: Int = trn.length

  /** Largest trussness, at least 2. */
  def kMax: Int = top

  /** Largest triangle mts of the graph. In the maintenance state's table it
    * is an upper bound: new triangles raise it, lowered mts values do not
    * lower it. A loose bound only widens the index directories.
    */
  def deltaMax: Int = dMax

  def span(e: Int, k: Int): Int = spans(e)(k - 3)

  def inTruss(e: Int, k: Int, delta: Int): Boolean =
    k <= 2 || (trn(e) >= k && spans(e)(k - 3) <= delta)

  /** The backing arrays of `trn` and the k-span rows, for the hot loops of
    * the index builders: slots `[0, m)` hold the edges. Read only, and only
    * until the next [[addEdge]].
    */
  def columns: (Array[Int], Array[Array[Int]]) = (trn.unsafeArray, spans.unsafeArray)

  /** Edge set of `T_{k,δ}` straight from the table (reference for tests and
    * the source both index builders consume). Sorted ascending.
    */
  def trussEdges(k: Int, delta: Int): Array[Int] =
    (0 until m).filter(e => inTruss(e, k, delta)).toArray

  /** `Σ_{k,δ} |T_{k,δ}|` — the size of storing every truss explicitly; the
    * denominator of the paper's Table II compression ratio.
    */
  def totalTrussCells: Long = // e is in T_{k,δ} for every δ ∈ [kspan(e,k), δmax]
    (0 until m).iterator.flatMap(spans(_)).map(s => (deltaMax - s + 1).toLong).sum

  // --- in-place maintenance (§VI) ------------------------------------------

  /** Append a new edge with trussness 2 and an empty row. */
  private[core] def addEdge(): Unit = { trn += 2; spans += Array.emptyIntArray }

  private[core] def setSpan(e: Int, k: Int, d: Int): Unit = spans(e)(k - 3) = d

  /** Grow the row of `e` to cover `k = 3..trn(e)` after its trussness rose;
    * new slots are set to `init`.
    */
  private[core] def growRow(e: Int, init: Int): Unit = if (spans(e).length < trn(e) - 2) {
    val nu = Arrays.copyOf(spans(e), trn(e) - 2)
    Arrays.fill(nu, spans(e).length, nu.length, init)
    spans(e) = nu
    top = math.max(top, trn(e))
  }

  /** Keep [[deltaMax]] an upper bound after a triangle of mts `d` appeared. */
  private[core] def coverMts(d: Int): Unit = dMax = math.max(dMax, d)

  /** An independent exact-sized table with the same values. */
  private[core] def copy(deltaMax: Int = dMax): KSpanTable =
    new KSpanTable(trn.toArray, spans.toArray.map(_.clone()), deltaMax)

  override def equals(o: Any): Boolean = o match {
    case other: KSpanTable =>
      deltaMax == other.deltaMax && m == other.m &&
        Arrays.equals(trn.unsafeArray, 0, m, other.trn.unsafeArray, 0, m) &&
        (0 until m).forall(e => Arrays.equals(spans(e), other.spans(e)))
    case _ => false
  }
  override def hashCode(): Int = Arrays.hashCode(trn.toArray)
}

/** The growable column of k-span rows of a [[KSpanTable]]: `apply(e)` is
  * the row of edge `e`. Amortized O(1) append, like [[IntColumn]].
  */
final class SpanRows private[core] (private var data: Array[Array[Int]]) {
  private var n = data.length

  def apply(e: Int): Array[Int] =
    if (e < n) data(e) else throw new IndexOutOfBoundsException(s"row $e, length $n")

  private[core] def update(e: Int, row: Array[Int]): Unit = data(e) = row

  private[core] def +=(row: Array[Int]): Unit = {
    if (n == data.length) data = Arrays.copyOf(data, math.max(1, 2 * n))
    data(n) = row; n += 1
  }

  private[core] def unsafeArray: Array[Array[Int]] = data

  /** The rows as an exact-length array; the rows themselves are shared. */
  def toArray: Array[Array[Int]] = Arrays.copyOf(data, n)

  /** [[toArray]] with row `e` replaced by `row`. */
  def updated(e: Int, row: Array[Int]): Array[Array[Int]] = { val a = toArray; a(e) = row; a }
}
