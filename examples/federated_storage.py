"""Tour of the heterogeneous storage substrates.

Shows the three storage legs the unified pipeline federates — the SQL
engine (with EXPLAIN plans and indexes), the JSON document store (path
queries, field indexes, projection to rows) and CSV ingestion with
schema inference — plus a manual federated join across them.

Run:  python examples/federated_storage.py
"""

from repro.storage.csvio import read_csv, table_to_csv
from repro.storage.document import DocumentStore
from repro.storage.relational import Database


def main():
    # --- Relational engine ------------------------------------------------
    db = Database()
    db.execute("CREATE TABLE products (pid INT PRIMARY KEY, name TEXT, "
               "price FLOAT)")
    db.execute("INSERT INTO products VALUES (1, 'Alpha Widget', 19.99), "
               "(2, 'Beta Gadget', 29.99), (3, 'Gamma Gizmo', 9.99)")
    print("EXPLAIN SELECT name FROM products WHERE pid = 2:")
    print(db.explain("SELECT name FROM products WHERE pid = 2"))
    print()
    result = db.execute(
        "SELECT name, price FROM products WHERE price >= 10 AND price <= 25 "
        "ORDER BY price DESC"
    )
    print(result.pretty())
    print()

    # --- Document store -----------------------------------------------------
    docs = DocumentStore()
    docs.put("ship-1", {"order": {"id": "ORD-1", "items": [
        {"pid": 1, "qty": 2}, {"pid": 3, "qty": 1}]},
        "status": "delivered"})
    docs.put("ship-2", {"order": {"id": "ORD-2", "items": [
        {"pid": 2, "qty": 5}]}, "status": "returned"})
    docs.create_field_index("status")
    print("Returned shipments:", docs.find_equal("status", "returned"))
    records = docs.project({"order_id": "order.id", "status": "status"})
    print("Projected to rows:", records)
    print()

    # --- CSV ingestion with schema inference --------------------------------
    csv_text = "pid,quarter,amount\n1,Q1,100.5\n2,Q1,220\n1,Q2,130\n"
    sales = read_csv("sales", csv_text)
    print("Inferred CSV schema:", sales.schema)
    print()

    # --- Federated join: documents × CSV × SQL ------------------------------
    # Which delivered orders contain products cheaper than $15?
    cheap_pids = set(db.execute(
        "SELECT pid FROM products WHERE price < 15"
    ).column("pid"))
    delivered = docs.find_equal("status", "delivered")
    hits = []
    for doc_id in delivered:
        doc = docs.get(doc_id)
        pids = {item["pid"] for item in doc["order"]["items"]}
        if pids & cheap_pids:
            hits.append((doc["order"]["id"], sorted(pids & cheap_pids)))
    print("Delivered orders containing sub-$15 products:", hits)
    print()

    # --- Writes ------------------------------------------------------------
    print("before the update, SUM(price) = %.2f"
          % db.execute("SELECT SUM(price) FROM products").scalar())
    updated = db.execute("UPDATE products SET price = 12.5 WHERE pid = 3")
    print("updated %d row(s); SUM(price) = %.2f" % (
        updated.scalar(),
        db.execute("SELECT SUM(price) FROM products").scalar()))
    print()
    print("Round-trip CSV of the sales table:")
    print(table_to_csv(sales))


if __name__ == "__main__":
    main()
