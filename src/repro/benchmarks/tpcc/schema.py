"""TPC-C schema: the nine tables of the order-processing benchmark.

Column sets follow the TPC-C specification (v5.11).  The scale factor is
the warehouse count, as in OLTP-Bench; per-warehouse population sizes are
configurable so Python-speed test runs can shrink the dataset while keeping
the spec's ratios.
"""

#: Specification population sizes (per warehouse unless noted).
DISTRICTS_PER_WAREHOUSE = 10
CUSTOMERS_PER_DISTRICT = 3_000
ITEMS = 100_000
INITIAL_ORDERS_PER_DISTRICT = 3_000
INITIAL_NEW_ORDER_FRACTION = 0.30  # last 900 of 3000 orders are undelivered

DDL = [
    """
    CREATE TABLE warehouse (
        w_id       INT PRIMARY KEY,
        w_name     VARCHAR(10) NOT NULL,
        w_street_1 VARCHAR(20) NOT NULL,
        w_street_2 VARCHAR(20) NOT NULL,
        w_city     VARCHAR(20) NOT NULL,
        w_state    CHAR(2) NOT NULL,
        w_zip      CHAR(9) NOT NULL,
        w_tax      FLOAT NOT NULL,
        w_ytd      FLOAT NOT NULL
    )
    """,
    """
    CREATE TABLE district (
        d_id        INT NOT NULL,
        d_w_id      INT NOT NULL,
        d_name      VARCHAR(10) NOT NULL,
        d_street_1  VARCHAR(20) NOT NULL,
        d_street_2  VARCHAR(20) NOT NULL,
        d_city      VARCHAR(20) NOT NULL,
        d_state     CHAR(2) NOT NULL,
        d_zip       CHAR(9) NOT NULL,
        d_tax       FLOAT NOT NULL,
        d_ytd       FLOAT NOT NULL,
        d_next_o_id INT NOT NULL,
        PRIMARY KEY (d_w_id, d_id)
    )
    """,
    """
    CREATE TABLE customer (
        c_id           INT NOT NULL,
        c_d_id         INT NOT NULL,
        c_w_id         INT NOT NULL,
        c_first        VARCHAR(16) NOT NULL,
        c_middle       CHAR(2) NOT NULL,
        c_last         VARCHAR(16) NOT NULL,
        c_street_1     VARCHAR(20) NOT NULL,
        c_street_2     VARCHAR(20) NOT NULL,
        c_city         VARCHAR(20) NOT NULL,
        c_state        CHAR(2) NOT NULL,
        c_zip          CHAR(9) NOT NULL,
        c_phone        CHAR(16) NOT NULL,
        c_since        TIMESTAMP NOT NULL,
        c_credit       CHAR(2) NOT NULL,
        c_credit_lim   FLOAT NOT NULL,
        c_discount     FLOAT NOT NULL,
        c_balance      FLOAT NOT NULL,
        c_ytd_payment  FLOAT NOT NULL,
        c_payment_cnt  INT NOT NULL,
        c_delivery_cnt INT NOT NULL,
        c_data         VARCHAR(500) NOT NULL,
        PRIMARY KEY (c_w_id, c_d_id, c_id)
    )
    """,
    "CREATE INDEX idx_customer_name ON customer (c_w_id, c_d_id, c_last)",
    """
    CREATE TABLE history (
        h_c_id   INT NOT NULL,
        h_c_d_id INT NOT NULL,
        h_c_w_id INT NOT NULL,
        h_d_id   INT NOT NULL,
        h_w_id   INT NOT NULL,
        h_date   TIMESTAMP NOT NULL,
        h_amount FLOAT NOT NULL,
        h_data   VARCHAR(24) NOT NULL,
        h_id     BIGINT PRIMARY KEY
    )
    """,
    """
    CREATE TABLE new_order (
        no_o_id INT NOT NULL,
        no_d_id INT NOT NULL,
        no_w_id INT NOT NULL,
        PRIMARY KEY (no_w_id, no_d_id, no_o_id)
    )
    """,
    """
    CREATE TABLE oorder (
        o_id         INT NOT NULL,
        o_d_id       INT NOT NULL,
        o_w_id       INT NOT NULL,
        o_c_id       INT NOT NULL,
        o_entry_d    TIMESTAMP NOT NULL,
        o_carrier_id INT,
        o_ol_cnt     INT NOT NULL,
        o_all_local  INT NOT NULL,
        PRIMARY KEY (o_w_id, o_d_id, o_id)
    )
    """,
    "CREATE INDEX idx_oorder_customer ON oorder (o_w_id, o_d_id, o_c_id, o_id)",
    """
    CREATE TABLE order_line (
        ol_o_id        INT NOT NULL,
        ol_d_id        INT NOT NULL,
        ol_w_id        INT NOT NULL,
        ol_number      INT NOT NULL,
        ol_i_id        INT NOT NULL,
        ol_supply_w_id INT NOT NULL,
        ol_delivery_d  TIMESTAMP,
        ol_quantity    INT NOT NULL,
        ol_amount      FLOAT NOT NULL,
        ol_dist_info   CHAR(24) NOT NULL,
        PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number)
    )
    """,
    "CREATE INDEX idx_order_line_order ON order_line (ol_w_id, ol_d_id, ol_o_id)",
    """
    CREATE TABLE item (
        i_id    INT PRIMARY KEY,
        i_im_id INT NOT NULL,
        i_name  VARCHAR(24) NOT NULL,
        i_price FLOAT NOT NULL,
        i_data  VARCHAR(50) NOT NULL
    )
    """,
    """
    CREATE TABLE stock (
        s_i_id       INT NOT NULL,
        s_w_id       INT NOT NULL,
        s_quantity   INT NOT NULL,
        s_dist_01    CHAR(24) NOT NULL,
        s_dist_02    CHAR(24) NOT NULL,
        s_dist_03    CHAR(24) NOT NULL,
        s_dist_04    CHAR(24) NOT NULL,
        s_dist_05    CHAR(24) NOT NULL,
        s_dist_06    CHAR(24) NOT NULL,
        s_dist_07    CHAR(24) NOT NULL,
        s_dist_08    CHAR(24) NOT NULL,
        s_dist_09    CHAR(24) NOT NULL,
        s_dist_10    CHAR(24) NOT NULL,
        s_ytd        FLOAT NOT NULL,
        s_order_cnt  INT NOT NULL,
        s_remote_cnt INT NOT NULL,
        s_data       VARCHAR(50) NOT NULL,
        PRIMARY KEY (s_w_id, s_i_id)
    )
    """,
]


def nurand_a(count: int, spec_count: int, spec_a: int) -> int:
    """NURand A constant scaled to a reduced population.

    Returns the spec value when the population matches the spec, otherwise
    the largest ``2^k - 1`` not exceeding half the population, preserving
    the spec's skew shape on shrunken datasets.
    """
    if count >= spec_count:
        return spec_a
    if count <= 2:
        return 1
    return (1 << (max(1, (count // 2)).bit_length() - 1)) - 1
